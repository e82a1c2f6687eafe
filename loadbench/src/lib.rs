//! An open-loop event→reaction benchmark for reweb nodes served over
//! loopback TCP. See `README.md` in this directory.

pub mod bench;
pub mod load;
pub mod node;
pub mod procfs;
pub mod report;
pub mod run;
pub mod session;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod verify;
pub mod workload;
