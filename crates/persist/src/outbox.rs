//! The delivery outbox: a durable journal of outbound reactions that
//! have been produced but not yet acknowledged by their destination.
//!
//! The delivery agent (`reweb_net::delivery`) is the write side of the
//! at-least-once story; this journal is what survives a crash of the
//! *sending* node. Every reaction handed to the agent is appended as an
//! `o_enq` record *before* the first dial attempt; every destination
//! acknowledgment (or dead-letter settlement) is appended as an `o_ack`
//! / `o_dead` record after the fact. Recovery replays the journal and
//! returns the unsettled remainder — exactly the deliveries whose fate
//! the crash interrupted — so the restarted agent re-queues them. A
//! re-queued delivery may already have reached its destination (the
//! crash can land between the peer's ack being sent and our `o_ack`
//! being durable); that is the "at-least-once" in at-least-once, and the
//! receiver deduplicates by the delivery key, which embeds the stable
//! outbox sequence number.
//!
//! The on-disk format is the same CRC-framed textual-term log as the WAL
//! ([`reweb_term::frame`]), with the same torn-tail discipline: a
//! truncated or CRC-broken final record is the expected residue of a
//! crash and is healed by truncation, never an error.
//!
//! Both sides commit in groups. [`Outbox::enqueue_many`] journals every
//! reaction of one engine batch with one write and one fsync. A
//! settlement can be appended without waiting
//! ([`Outbox::settle_deferred`]) and made durable later, outside the
//! caller's lock, through the journal's [`GroupSync`]: one `sync_data`
//! there covers every settlement appended before it started.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use reweb_term::frame::{push_frame, scan_frames, write_frame};
use reweb_term::{parse_term, Term, Timestamp};

use crate::wal::{field_child, field_text, field_u64};
use crate::{PersistError, Result, SyncPolicy};

/// Magic first record of every outbox journal.
pub const OUTBOX_SCHEMA: &str = "reweb-outbox/v1";

/// One unsettled outbound reaction recovered from (or tracked by) the
/// journal.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingDelivery {
    /// Stable, monotone sequence number — assigned at enqueue, embedded
    /// in the wire-level delivery key, never reused.
    pub seq: u64,
    /// Destination URI from the reaction's `to[...]`.
    pub to: String,
    /// Event time of the originating reaction.
    pub at: Timestamp,
    /// The reaction term itself.
    pub payload: Term,
}

/// How a delivery left the pending set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settle {
    /// The destination acknowledged ingestion.
    Acked,
    /// The retry budget ran out; the reaction went to the dead-letter
    /// log instead (still recoverable — just no longer *pending*).
    DeadLettered,
}

enum OutboxRecord {
    Head { schema: String },
    Enq(PendingDelivery),
    Settle { seq: u64, how: Settle },
}

impl OutboxRecord {
    fn to_bytes(&self) -> Vec<u8> {
        let term = match self {
            OutboxRecord::Head { schema } => Term::build("o_head")
                .unordered()
                .field("schema", schema)
                .finish(),
            OutboxRecord::Enq(p) => enq_term(p),
            OutboxRecord::Settle {
                seq,
                how: Settle::Acked,
            } => Term::build("o_ack")
                .unordered()
                .field("seq", seq.to_string())
                .finish(),
            OutboxRecord::Settle {
                seq,
                how: Settle::DeadLettered,
            } => Term::build("o_dead")
                .unordered()
                .field("seq", seq.to_string())
                .finish(),
        };
        term.to_string().into_bytes()
    }

    /// The record as one frame, ready for [`Outbox::append_frames`].
    fn to_frame(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        push_frame(&mut buf, &self.to_bytes())?;
        Ok(buf)
    }

    fn from_bytes(bytes: &[u8]) -> Result<OutboxRecord> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| PersistError::Corrupt("outbox record is not UTF-8".into()))?;
        let t = parse_term(text)?;
        match t.label() {
            Some("o_head") => Ok(OutboxRecord::Head {
                schema: field_text(&t, "schema")?,
            }),
            Some("o_enq") => Ok(OutboxRecord::Enq(PendingDelivery {
                seq: field_u64(&t, "seq")?,
                to: field_text(&t, "to")?,
                at: Timestamp(field_u64(&t, "at")?),
                payload: field_child(&t, "payload")?.clone(),
            })),
            Some("o_ack") => Ok(OutboxRecord::Settle {
                seq: field_u64(&t, "seq")?,
                how: Settle::Acked,
            }),
            Some("o_dead") => Ok(OutboxRecord::Settle {
                seq: field_u64(&t, "seq")?,
                how: Settle::DeadLettered,
            }),
            other => Err(PersistError::Corrupt(format!(
                "unknown outbox record label {other:?}"
            ))),
        }
    }
}

fn enq_term(p: &PendingDelivery) -> Term {
    Term::build("o_enq")
        .unordered()
        .field("seq", p.seq.to_string())
        .field("to", &p.to)
        .field("at", p.at.millis().to_string())
        .child(Term::ordered("payload", vec![p.payload.clone()]))
        .finish()
}

/// The group-commit point of an outbox journal: a handle on the journal
/// file of its own and a durable-length watermark, shared (via
/// [`Outbox::group_sync`]) with threads that must not hold the
/// outbox's owner lock while they wait for a disk.
pub struct GroupSync {
    /// `false` unless the journal syncs ([`SyncPolicy::Always`]).
    enabled: bool,
    /// The journal handle and the length known durable. Held across
    /// the `sync_data`, so callers that queue behind it find their
    /// records already covered.
    state: Mutex<(File, u64)>,
    /// Journal length written so far, stored after every append.
    appended: AtomicU64,
    fsyncs: AtomicU64,
}

impl GroupSync {
    /// Make the journal durable up to at least byte `len` (a length
    /// [`Outbox::settle_deferred`] returned). A caller whose records an
    /// earlier or concurrent sync already covered returns without one;
    /// otherwise one `sync_data` covers everything appended before it
    /// started.
    pub fn sync_to(&self, len: u64) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut state = self.state.lock().expect("outbox group sync poisoned");
        if state.1 >= len {
            return Ok(());
        }
        let covered = self.appended.load(Ordering::Acquire);
        state.0.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        state.1 = state.1.max(covered);
        Ok(())
    }

    /// `sync_data` calls issued by [`GroupSync::sync_to`].
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }
}

/// Result of opening (and torn-tail-healing) an outbox journal.
pub struct OutboxOpen {
    /// The append handle.
    pub outbox: Outbox,
    /// Every enqueued-but-unsettled delivery, in sequence order.
    pub pending: Vec<PendingDelivery>,
    /// Bytes discarded from a torn or corrupt tail.
    pub torn_bytes: u64,
}

/// Append handle over the outbox journal. All writes go through the
/// configured [`SyncPolicy`]; with [`SyncPolicy::Always`] an enqueue is
/// durable before the agent's first dial attempt, which is what makes
/// the pending set exact across sender crashes.
pub struct Outbox {
    file: File,
    len: u64,
    path: PathBuf,
    sync: SyncPolicy,
    next_seq: u64,
    /// Unsettled sequence numbers with their payloads — kept in memory
    /// for inspection ([`Outbox::pending_count`]) and compaction.
    live: BTreeMap<u64, PendingDelivery>,
    /// Settlements journaled so far (ack + dead), for accounting.
    settled: u64,
    /// `sync_data` calls issued by appends since open.
    fsyncs: u64,
    group: Arc<GroupSync>,
}

impl Outbox {
    /// Open (creating if absent) the journal at `path`: heal the torn
    /// tail, replay the records, and return the unsettled remainder.
    pub fn open(path: &Path, sync: SyncPolicy) -> Result<OutboxOpen> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let scan = scan_frames(&bytes);
        let torn_bytes = bytes.len() as u64 - scan.valid_len;
        let mut live = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut settled = 0u64;
        for (i, (_, payload)) in scan.frames.iter().enumerate() {
            match OutboxRecord::from_bytes(payload)? {
                OutboxRecord::Head { schema } => {
                    if i != 0 {
                        return Err(PersistError::Corrupt("outbox header not first".into()));
                    }
                    if schema != OUTBOX_SCHEMA {
                        return Err(PersistError::Corrupt(format!(
                            "outbox schema `{schema}` is not `{OUTBOX_SCHEMA}`"
                        )));
                    }
                }
                OutboxRecord::Enq(p) => {
                    next_seq = next_seq.max(p.seq + 1);
                    live.insert(p.seq, p);
                }
                OutboxRecord::Settle { seq, .. } => {
                    live.remove(&seq);
                    settled += 1;
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if torn_bytes > 0 {
            file.set_len(scan.valid_len)?;
        }
        let group = Arc::new(GroupSync {
            enabled: sync == SyncPolicy::Always,
            state: Mutex::new((file.try_clone()?, scan.valid_len)),
            appended: AtomicU64::new(scan.valid_len),
            fsyncs: AtomicU64::new(0),
        });
        let mut outbox = Outbox {
            file,
            len: scan.valid_len,
            path: path.to_path_buf(),
            sync,
            next_seq,
            live,
            settled,
            fsyncs: 0,
            group,
        };
        if outbox.len == 0 {
            let head = OutboxRecord::Head {
                schema: OUTBOX_SCHEMA.into(),
            };
            outbox.append_frames(&head.to_frame()?, true)?;
            // The header of a fresh journal is set-up, not traffic.
            outbox.fsyncs = 0;
        }
        let pending = outbox.live.values().cloned().collect();
        Ok(OutboxOpen {
            outbox,
            pending,
            torn_bytes,
        })
    }

    /// Write whole frames in one `write_all` and, when `sync` is set
    /// and the policy syncs, `sync_data` them. Returns the journal
    /// length after the write.
    fn append_frames(&mut self, frames: &[u8], sync: bool) -> Result<u64> {
        if let Err(e) = self.file.write_all(frames) {
            // Same discipline as the WAL: never leave garbage at the
            // tail for a later successful append to land behind.
            let _ = self.file.set_len(self.len);
            return Err(e.into());
        }
        self.len += frames.len() as u64;
        self.group.appended.store(self.len, Ordering::Release);
        if sync && self.sync == SyncPolicy::Always {
            self.file.sync_data()?;
            self.fsyncs += 1;
        }
        Ok(self.len)
    }

    /// Journal one outbound reaction; returns its sequence number. The
    /// record is durable (per policy) when this returns — only then may
    /// the agent start dialing.
    pub fn enqueue(&mut self, to: &str, at: Timestamp, payload: &Term) -> Result<u64> {
        Ok(self.enqueue_many([(to, at, payload)])?.start)
    }

    /// Journal a group of outbound reactions — one engine batch's —
    /// with one write and (per policy) one fsync. Returns their
    /// sequence numbers, consecutive in the given order. All of them
    /// are durable when this returns; on an error none is pending.
    pub fn enqueue_many<'a>(
        &mut self,
        items: impl IntoIterator<Item = (&'a str, Timestamp, &'a Term)>,
    ) -> Result<Range<u64>> {
        let first = self.next_seq;
        let mut frames = Vec::new();
        let mut group = Vec::new();
        for (to, at, payload) in items {
            let p = PendingDelivery {
                seq: first + group.len() as u64,
                to: to.to_string(),
                at,
                payload: payload.clone(),
            };
            push_frame(&mut frames, enq_term(&p).to_string().as_bytes())?;
            group.push(p);
        }
        if group.is_empty() {
            return Ok(first..first);
        }
        self.append_frames(&frames, true)?;
        self.next_seq += group.len() as u64;
        for p in group {
            self.live.insert(p.seq, p);
        }
        Ok(first..self.next_seq)
    }

    /// Re-journal a previously settled delivery under its *original*
    /// sequence number — the redeliver path for dead letters. Keeping
    /// the seq (and with it the wire-level delivery key) is what lets
    /// the receiver recognize a redelivered reaction it already
    /// ingested once via a lost ack.
    pub fn requeue(&mut self, p: &PendingDelivery) -> Result<()> {
        if self.live.contains_key(&p.seq) {
            return Ok(());
        }
        self.append_frames(&OutboxRecord::Enq(p.clone()).to_frame()?, true)?;
        self.next_seq = self.next_seq.max(p.seq + 1);
        self.live.insert(p.seq, p.clone());
        Ok(())
    }

    /// Journal a settlement: the delivery was acknowledged by the
    /// destination, or moved to the dead-letter log. Unknown or
    /// already-settled sequence numbers are a no-op (the agent may
    /// settle the same seq twice across a redeliver race).
    pub fn settle(&mut self, seq: u64, how: Settle) -> Result<()> {
        match self.settle_deferred(seq, how)? {
            Some(len) => self.group.sync_to(len),
            None => Ok(()),
        }
    }

    /// Journal a settlement without waiting for the disk: returns the
    /// journal length that [`GroupSync::sync_to`] must reach before the
    /// settlement may be relied on, or `None` when `seq` was not
    /// pending (nothing written). This lets the caller drop its lock
    /// before the fsync, so settlements from several threads share one.
    pub fn settle_deferred(&mut self, seq: u64, how: Settle) -> Result<Option<u64>> {
        if self.live.remove(&seq).is_none() {
            return Ok(None);
        }
        self.settled += 1;
        let frame = OutboxRecord::Settle { seq, how }.to_frame()?;
        self.append_frames(&frame, false).map(Some)
    }

    /// The journal's group-commit point (see [`GroupSync`]).
    pub fn group_sync(&self) -> Arc<GroupSync> {
        Arc::clone(&self.group)
    }

    /// `sync_data` calls issued by enqueues and requeues since open (the
    /// header of a fresh journal not counted). Settlements sync through
    /// [`GroupSync`], which counts its own.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Deliveries enqueued but not yet settled.
    pub fn pending_count(&self) -> usize {
        self.live.len()
    }

    /// Settlement records journaled so far (acked + dead-lettered).
    pub fn settled_count(&self) -> u64 {
        self.settled
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrite the journal with only the header and the unsettled
    /// remainder (write-to-temp then rename, so a crash mid-compaction
    /// leaves either the old or the new journal, never a mix). Call
    /// when the settled prefix dominates the file.
    pub fn compact(&mut self) -> Result<()> {
        let tmp = self.path.with_extension("compact");
        {
            let mut f = File::create(&tmp)?;
            write_frame(
                &mut f,
                &OutboxRecord::Head {
                    schema: OUTBOX_SCHEMA.into(),
                }
                .to_bytes(),
            )?;
            for p in self.live.values() {
                write_frame(&mut f, &OutboxRecord::Enq(p.clone()).to_bytes())?;
            }
            f.flush()?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = self.file.metadata()?.len();
        self.settled = 0;
        // The group sync follows the new file. Its watermark restarts at
        // the new length: the rewrite was synced above, and a stale,
        // larger watermark would let later settlements skip their fsync.
        let mut state = self.group.state.lock().expect("outbox group sync poisoned");
        *state = (self.file.try_clone()?, self.len);
        self.group.appended.store(self.len, Ordering::Release);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reweb-outbox-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("outbox.log");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn pending_survives_reopen_and_settlement_is_final() {
        let path = scratch("reopen");
        let mut ob = Outbox::open(&path, SyncPolicy::Always).unwrap().outbox;
        let s0 = ob
            .enqueue("http://b/", Timestamp(10), &Term::elem("x"))
            .unwrap();
        let s1 = ob
            .enqueue("http://c/", Timestamp(20), &Term::elem("y"))
            .unwrap();
        let s2 = ob
            .enqueue("http://b/", Timestamp(30), &Term::elem("z"))
            .unwrap();
        assert_eq!((s0, s1, s2), (0, 1, 2));
        ob.settle(s1, Settle::Acked).unwrap();
        ob.settle(s0, Settle::DeadLettered).unwrap();
        ob.settle(s0, Settle::DeadLettered).unwrap(); // duplicate: no-op
        assert_eq!(ob.pending_count(), 1);
        drop(ob);

        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(open.torn_bytes, 0);
        assert_eq!(open.pending.len(), 1);
        assert_eq!(open.pending[0].seq, s2);
        assert_eq!(open.pending[0].to, "http://b/");
        assert_eq!(open.pending[0].payload, Term::elem("z"));
        // Sequence numbers are never reused after recovery.
        let mut ob = open.outbox;
        let s3 = ob
            .enqueue("http://b/", Timestamp(40), &Term::elem("w"))
            .unwrap();
        assert_eq!(s3, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_heals_and_compaction_preserves_pending() {
        let path = scratch("torn");
        let mut ob = Outbox::open(&path, SyncPolicy::Always).unwrap().outbox;
        for i in 0..4 {
            ob.enqueue("http://b/", Timestamp(i), &Term::elem("e"))
                .unwrap();
        }
        ob.settle(0, Settle::Acked).unwrap();
        ob.settle(1, Settle::Acked).unwrap();
        drop(ob);

        // Tear mid-record: the last settle survives, garbage heals.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        assert!(open.torn_bytes > 0);
        // The torn record was `o_ack{seq["1"]}` minus 3 bytes, so seq 1
        // is pending again — re-delivering an already-acked reaction is
        // exactly the at-least-once contract.
        let seqs: Vec<u64> = open.pending.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);

        let mut ob = open.outbox;
        ob.compact().unwrap();
        drop(ob);
        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        let seqs: Vec<u64> = open.pending.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "compaction kept the pending set");
        assert!(open.outbox.next_seq == 4, "compaction kept seq monotone");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn enqueue_many_is_one_fsync_and_a_torn_group_keeps_its_prefix() {
        let path = scratch("group");
        let mut ob = Outbox::open(&path, SyncPolicy::Always).unwrap().outbox;
        ob.enqueue("http://b/", Timestamp(1), &Term::elem("a"))
            .unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let (x, y, z) = (Term::elem("x"), Term::elem("y"), Term::elem("z"));
        let seqs = ob
            .enqueue_many([
                ("http://b/", Timestamp(2), &x),
                ("http://c/", Timestamp(3), &y),
                ("http://b/", Timestamp(4), &z),
            ])
            .unwrap();
        assert_eq!(seqs, 1..4);
        assert_eq!(ob.fsyncs(), 2, "one fsync per call, not per reaction");
        assert_eq!(ob.enqueue_many([]).unwrap(), 4..4);
        assert_eq!(ob.fsyncs(), 2, "an empty group writes nothing");
        drop(ob);

        // Tear inside the group's last record: the group's intact
        // prefix stays pending, its torn record is gone.
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len > before);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        assert!(open.torn_bytes > 0);
        let seqs: Vec<u64> = open.pending.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(open.pending[2].payload, y);
        let mut ob = open.outbox;
        let next = ob.enqueue_many([("http://b/", Timestamp(5), &z)]).unwrap();
        assert_eq!(next, 3..4, "seqs stay monotone past the healed tail");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_committed_settles_survive_reopen() {
        let path = scratch("settle");
        let mut ob = Outbox::open(&path, SyncPolicy::Always).unwrap().outbox;
        let e = Term::elem("e");
        ob.enqueue_many((0..4).map(|i| ("http://b/", Timestamp(i), &e)))
            .unwrap();
        let group = ob.group_sync();
        let a = ob.settle_deferred(0, Settle::Acked).unwrap().unwrap();
        let b = ob.settle_deferred(2, Settle::Acked).unwrap().unwrap();
        assert_eq!(ob.settle_deferred(2, Settle::Acked).unwrap(), None);
        assert!(b > a);
        group.sync_to(a).unwrap();
        assert_eq!(group.fsyncs(), 1);
        group.sync_to(b).unwrap();
        assert_eq!(group.fsyncs(), 1, "the first sync covered both settles");
        drop(ob);
        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        let seqs: Vec<u64> = open.pending.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![1, 3]);

        // Compaction moves the group sync to the new file and restarts
        // its watermark there.
        let mut ob = open.outbox;
        let group = ob.group_sync();
        ob.compact().unwrap();
        let c = ob.settle_deferred(1, Settle::Acked).unwrap().unwrap();
        group.sync_to(c).unwrap();
        assert_eq!(group.fsyncs(), 1, "a settle after compaction syncs");
        drop(ob);
        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        let seqs: Vec<u64> = open.pending.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![3]);
        let _ = std::fs::remove_file(&path);
    }
}
