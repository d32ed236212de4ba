//! Optimistic concurrency control ([`CcMode::Optimistic`]): the private
//! per-transaction buffers, the lock-free read and write paths, and the
//! optimistic commit with its retire routine. The shared core (registry,
//! MVCC store, sequencers, WAL, recovery) and the locking path live in
//! the parent `db` module.

use super::*;

/// Per-transaction optimistic-mode context: the begin snapshot plus the
/// private buffers that replace lock-table state ([`CcMode::Optimistic`]).
///
/// Children get their own context linked to the parent's: reads overlay
/// the nearest ancestor's buffered write over the pinned snapshot, a
/// child commit merges its buffers into the parent (savepoint release),
/// and a child abort discards them — the resilient-nesting semantics of
/// lock inheritance, re-expressed over buffers. First-committer-wins
/// validation runs once, at the top of the tree, over the merged
/// footprint. (Live *sibling* subtransactions are not isolated from the
/// committed state of each other's merges, exactly as with inherited
/// locks; serializability is enforced between top-level trees.)
pub(super) struct OptCtx<K, V> {
    /// Snapshot epoch pinned by the top-level transaction at begin (the
    /// top owns the pin; children copy the value).
    pub(super) begin_epoch: u64,
    /// The parent's context (`None` on the top-level transaction).
    pub(super) parent: Option<Arc<OptCtx<K, V>>>,
    /// Private write buffer, newest value per key. A `BTreeMap` so the
    /// commit publishes (and WAL-logs) in deterministic key order.
    writes: Mutex<BTreeMap<K, V>>,
    /// Keys read from the snapshot — the rw-antidependency half of the
    /// validation footprint. Buffered-write hits don't enter: they
    /// depend on this tree, not on the snapshot.
    reads: Mutex<HashSet<K>>,
    /// Access records buffered until top-level commit. Flushing them to
    /// the audit log under the publish gate makes audit data order equal
    /// commit (= epoch) order — the invariant the Theorem-9 oracle's
    /// reconstruction relies on, which op-time logging would break for
    /// transactions that overlap in wall-clock but not in serial order.
    audit_buf: Mutex<Vec<AuditRecord>>,
}

impl<K: Eq + Hash + Ord + Clone, V: Clone> OptCtx<K, V> {
    /// A fresh context with empty buffers (`parent` is `None` at the top
    /// of the tree).
    pub(super) fn new(begin_epoch: u64, parent: Option<Arc<OptCtx<K, V>>>) -> Self {
        OptCtx {
            begin_epoch,
            parent,
            writes: Mutex::new(BTreeMap::new()),
            reads: Mutex::new(HashSet::new()),
            audit_buf: Mutex::new(Vec::new()),
        }
    }

    /// The nearest buffered value for `key`: own buffer first, then the
    /// ancestor chain outward.
    fn buffered(&self, key: &K) -> Option<V> {
        if let Some(v) = self.writes.lock().get(key) {
            return Some(v.clone());
        }
        self.parent.as_ref().and_then(|p| p.buffered(key))
    }

    /// Enter `key` into the read set, cloning only on first contact.
    fn track_read(&self, key: &K) {
        let mut reads = self.reads.lock();
        if !reads.contains(key) {
            reads.insert(key.clone());
        }
    }

    /// Buffer a written value, cloning the key only on first write.
    fn track_write(&self, key: &K, value: V) {
        let mut writes = self.writes.lock();
        match writes.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                writes.insert(key.clone(), value);
            }
        }
    }
}

/// One top-level optimistic commit as its retire routine sees it: the
/// whole validation footprint, so the routine can validate, publish, or
/// abort each participant of a batch under one publish-gate acquisition.
pub(super) struct OptCommit<K, V> {
    /// The participant's pinned begin snapshot.
    begin_epoch: u64,
    /// Its buffered write set (key order, for deterministic logs).
    writes: BTreeMap<K, V>,
    /// Its snapshot read set.
    reads: HashSet<K>,
    /// Its buffered audit Access records.
    audit: Vec<AuditRecord>,
}

impl<K, V> OptCommit<K, V> {
    /// The keys first-committer-wins validates: write set ∪ read set.
    fn footprint(&self) -> impl Iterator<Item = &K> {
        self.writes.keys().chain(self.reads.iter())
    }
}

impl<K, V> DbInner<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// The optimistic retire routine, for sequencer batches and inline
    /// commits (a batch of one) alike: validate every participant, then
    /// log and publish the survivors as a contiguous epoch run and abort
    /// the losers.
    ///
    /// Validation is two-phase (Kung–Robinson). Phase 1 runs *before*
    /// the gate against a pre-read watermark: every commit fully
    /// published by then is visible to the scan, so the expensive
    /// O(footprint) walk happens outside the publish critical section. A
    /// commit racing phase 1 either finished first (the watermark moved
    /// past `pre_watermark`, and phase 2 catches it through the
    /// `> pre_watermark` floor) or is mid-publish holding the gate (its
    /// appends may be visible early, but it can no longer fail — losing
    /// to it is ordinary first-committer loss). Phase 2 runs under the
    /// gate: it re-scans the chain heads only if the watermark moved,
    /// and checks the write sets of earlier in-batch survivors — exactly
    /// what each participant would have observed had the batch committed
    /// one by one. `pre_watermark ≥ begin_epoch` (the begin pin is at or
    /// below any later watermark read), so the tighter floor loses no
    /// conflicts. No epoch is burned on a loser: a batch with no phase-1
    /// survivor never takes the gate, and survivors get epochs only as
    /// they pass phase 2.
    ///
    /// Passing validation makes a commit final, so the routine flips the
    /// registry state of every participant (commit or abort) itself:
    /// when a verdict is returned, the transaction is finished either way.
    fn process_optimistic_batch(
        &self,
        batch: &[StagedCommit<OptCommit<K, V>>],
    ) -> Vec<Result<(), TxnError>> {
        let conflict = |c: &OptCommit<K, V>, committed_epoch| TxnError::Conflict {
            begin_epoch: c.begin_epoch,
            committed_epoch,
        };
        // Phase 1, outside the gate.
        let pre_watermark = self.mvcc.watermark();
        let mut failures: Vec<Option<TxnError>> = batch
            .iter()
            .map(|s| {
                let c = &s.payload;
                self.opt_conflict(c.footprint(), c.begin_epoch).map(|e| conflict(c, e))
            })
            .collect();
        let mut durable = Ok(());
        if failures.iter().any(Option::is_none) {
            let gate = self.mvcc.begin_publish_gate();
            let moved = self.mvcc.watermark() != pre_watermark;
            let base = gate.next_epoch();
            // Phase 2. A survivor's epoch is `base` plus the number of
            // earlier survivors; its write set joins the in-batch overlay
            // later participants validate against.
            let mut batch_writes: HashMap<K, u64> = HashMap::new();
            let mut survivors: u64 = 0;
            for (i, staged) in batch.iter().enumerate() {
                if failures[i].is_some() {
                    continue;
                }
                let c = &staged.payload;
                let mut newest = c.footprint().filter_map(|k| batch_writes.get(k).copied()).max();
                if moved {
                    newest = newest.max(self.opt_conflict(c.footprint(), pre_watermark));
                }
                if let Some(committed_epoch) = newest {
                    failures[i] = Some(conflict(c, committed_epoch));
                    continue;
                }
                // Passing validation makes the commit final: flip the
                // registry state while still under the gate, so no later
                // observation can see a validated participant still active.
                if let Err(e) = self.registry.commit(staged.txn) {
                    failures[i] = Some(map_reg_err(e));
                    continue;
                }
                // Only later participants read the overlay: a batch of
                // one (every inline commit) never builds it. Keys never
                // repeat in it — a later writer of a key already in the
                // overlay conflicts with it above.
                if i + 1 < batch.len() {
                    batch_writes.extend(c.writes.keys().map(|k| (k.clone(), base + survivors)));
                }
                survivors += 1;
            }
            if survivors > 0 {
                let survivors_in_order = || {
                    batch.iter().zip(failures.iter()).filter(|(_, f)| f.is_none()).map(|(s, _)| s)
                };
                // Flush buffered Access records in epoch order (audit data
                // order = commit order, the Theorem-9 reconstruction
                // invariant) and log the write records, then one commit
                // frame, then publish — all under the gate.
                for StagedCommit { txn, payload, .. } in survivors_in_order() {
                    if let Some(state) = &self.audit {
                        for record in payload.audit.iter() {
                            state.log.push(record.clone());
                        }
                    }
                    self.audit_record(|reg| AuditRecord::Commit {
                        path: reg.path(*txn).expect("known"),
                    });
                    for (key, value) in payload.writes.iter() {
                        self.wal_log_write(*txn, key, value);
                    }
                }
                durable = self.log_commit_frame(survivors_in_order().map(|s| s.txn).zip(base..));
                let publish = gate.into_batch(survivors as usize);
                for (n, staged) in survivors_in_order().enumerate() {
                    self.publish_optimistic_writes(&staged.payload.writes, publish.epoch_of(n));
                }
                drop(publish);
            }
        }
        // Losers: audited and logged as aborts here (a staged loser's
        // thread is parked — someone must finish it).
        for (staged, failure) in batch.iter().zip(failures.iter()) {
            let Some(failure) = failure else { continue };
            let id = staged.txn;
            self.audit_record(|reg| AuditRecord::Abort { path: reg.path(id).expect("known") });
            self.wal_append(&Record::Abort { action: id.0 });
            let _ = self.registry.abort(id);
            if matches!(failure, TxnError::Conflict { .. }) {
                self.stats.bump(|b| &b.occ_conflicts);
            }
            self.stats.bump(|b| &b.aborted);
        }
        failures.into_iter().map(|f| f.map_or_else(|| durable.clone(), Err)).collect()
    }

    /// Classify an absent key under an optimistic read: a racing ancestor
    /// abort may have unpinned our snapshot and let GC compact the chain
    /// mid-read, so a dead transaction reports orphanhood, not absence.
    fn opt_absent_error(&self, t: TxnId) -> TxnError {
        if self.registry.is_dead(t) {
            TxnError::Orphaned
        } else {
            TxnError::UnknownKey
        }
    }

    /// Buffer one optimistic Access record into the transaction's private
    /// audit buffer. The path is allocated *now* (so leaf indices reflect
    /// op order within the transaction); the record reaches the shared log
    /// only at top-level commit, under the publish gate.
    fn opt_buffer_access(
        &self,
        opt: &OptCtx<K, V>,
        t: TxnId,
        key: &K,
        update: UpdateFn,
        seen: rnt_model::Value,
    ) {
        if self.audit.is_none() {
            return;
        }
        let Some(object) = self.audit_object(key) else { return };
        opt.audit_buf.lock().push(AuditRecord::Access {
            path: access_path(&self.registry, t),
            object,
            update,
            seen,
        });
    }

    /// First-committer-wins validation: the newest committed epoch above
    /// `floor` on any key of `footprint`, or `None` if the footprint is
    /// clean. Sound outside the publish gate only as phase 1 of
    /// [`DbInner::process_optimistic_batch`], which re-checks under the
    /// gate whatever the scan could have missed.
    fn opt_conflict<'k>(&self, footprint: impl Iterator<Item = &'k K>, floor: u64) -> Option<u64>
    where
        K: 'k,
    {
        let mut newest = None;
        for key in footprint {
            if let Some(e) = self.mvcc.last_epoch(key) {
                if e > floor && Some(e) > newest {
                    newest = Some(e);
                }
            }
        }
        newest
    }

    /// Publish a validated optimistic write set at `epoch`: per key,
    /// replace the lock-table base and append the chain version under the
    /// owning shard guard (the caller holds the publish lock — the same
    /// publish → shard → mvcc-shard order as the locking commit path).
    fn publish_optimistic_writes(&self, writes: &std::collections::BTreeMap<K, V>, epoch: u64) {
        for (key, value) in writes {
            let mut guard = self.shards[self.shard_of(key)].lock();
            if let Some(state) = guard.objects.get_mut(key) {
                state.publish_base(value.clone());
            }
            self.mvcc.append(key, epoch, value.clone());
            self.notify_released(&guard, key);
        }
    }
}

impl<K, V> Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// Optimistic read: buffered overlay first, else the pinned snapshot.
    pub(super) fn opt_read(&self, key: &K, opt: &Arc<OptCtx<K, V>>) -> Result<V, TxnError> {
        let inner = &self.inner;
        inner.access_preamble(self.id, inner.shard_of(key), opt.parent.is_none())?;
        if let Some(v) = opt.buffered(key) {
            // Reading a value this tree wrote: no snapshot dependency,
            // but still an audited access (mirroring a locked read of an
            // own-held write version).
            inner.opt_buffer_access(opt, self.id, key, UpdateFn::Read, hash_value(&v));
            return Ok(v);
        }
        match inner.mvcc.read_at(key, opt.begin_epoch) {
            Some(v) => {
                opt.track_read(key);
                inner.opt_buffer_access(opt, self.id, key, UpdateFn::Read, hash_value(&v));
                Ok(v)
            }
            None => Err(inner.opt_absent_error(self.id)),
        }
    }

    /// Optimistic read-modify-write: `f` over the overlaid view, result
    /// into the private write buffer.
    pub(super) fn opt_rmw(
        &self,
        key: &K,
        f: impl Fn(&V) -> V,
        opt: &Arc<OptCtx<K, V>>,
    ) -> Result<V, TxnError> {
        let inner = &self.inner;
        inner.access_preamble(self.id, inner.shard_of(key), opt.parent.is_none())?;
        let seen = match opt.buffered(key) {
            Some(v) => v,
            None => match inner.mvcc.read_at(key, opt.begin_epoch) {
                Some(v) => {
                    // The written value depends on the snapshot value:
                    // the key joins the read set for validation.
                    opt.track_read(key);
                    v
                }
                None => return Err(inner.opt_absent_error(self.id)),
            },
        };
        let new = f(&seen);
        inner.opt_buffer_access(
            opt,
            self.id,
            key,
            UpdateFn::Write(hash_value(&new)),
            hash_value(&seen),
        );
        opt.track_write(key, new);
        Ok(seen)
    }

    /// The optimistic commit. A nested commit is a savepoint release: its
    /// buffers merge into the parent, no validation. A top-level commit
    /// hands its merged footprint (read set ∪ write set) to
    /// [`DbInner::process_optimistic_batch`], which validates it
    /// first-committer-wins: any footprint key with a committed epoch
    /// newer than the begin snapshot aborts the transaction with
    /// [`TxnError::Conflict`]; a clean footprint publishes all buffered
    /// writes at one fresh epoch, WAL-logged before the watermark moves.
    /// `Err` means the commit was refused and the transaction is still
    /// active; `Ok` carries the commit's verdict.
    pub(super) fn commit_optimistic(
        &self,
        opt: &OptCtx<K, V>,
    ) -> Result<Result<(), TxnError>, TxnError> {
        let inner = &self.inner;
        let id = self.id;
        if let Some(parent) = &opt.parent {
            // Nested: merge into the parent's buffers. Judged once, at
            // the top of the tree — resilient nesting over buffers.
            inner.registry.commit(id).map_err(map_reg_err)?;
            inner.audit_record(|reg| AuditRecord::Commit { path: reg.path(id).expect("known") });
            inner.wal_append(&Record::Commit { action: id.0, epoch: None });
            parent.writes.lock().append(&mut opt.writes.lock());
            parent.reads.lock().extend(opt.reads.lock().drain());
            parent.audit_buf.lock().append(&mut opt.audit_buf.lock());
            return Ok(Ok(()));
        }
        // Top-level: children must be finished before validation freezes
        // the footprint. Side-effect-free check — the transaction stays
        // active and its buffers intact, like the locking path's registry
        // refusal.
        let kids = inner.registry.active_children(id);
        if kids > 0 {
            return Err(TxnError::ChildrenActive(kids));
        }
        let commit = OptCommit {
            begin_epoch: opt.begin_epoch,
            writes: std::mem::take(&mut *opt.writes.lock()),
            reads: std::mem::take(&mut *opt.reads.lock()),
            audit: std::mem::take(&mut *opt.audit_buf.lock()),
        };
        let retire = |batch: &_| inner.process_optimistic_batch(batch);
        let verdict = inner.retire_top(&inner.occ_pipeline, id, commit, retire);
        inner.mvcc.unpin(opt.begin_epoch);
        Ok(verdict)
    }
}
