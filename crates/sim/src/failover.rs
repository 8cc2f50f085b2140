//! Two-node crash-simulation: a primary and a warm standby over one
//! shared fault-injecting filesystem, with a promotion oracle.
//!
//! [`run_failover`] extends [`crate::driver::run_sim`]'s single-node
//! experiment to the replication topology `calc_engine::standby` implements:
//!
//! 1. A primary runs the seeded serial workload — segmented command log,
//!    periodic checkpoints, optional retention truncation — over a
//!    [`calc_common::simfs::SimVfs`], with one fault armed (or a power cut
//!    at the end).
//! 2. A [`Standby`] shares the same filesystem, bootstraps from whatever
//!    checkpoint chain exists when it opens, and polls the log tail
//!    every [`FailoverSpec::poll_every`] transactions. A large
//!    `poll_every` combined with aggressive retention makes the primary
//!    truncate segments out from under the standby's cursor — the
//!    tailer×retention race — while a small one keeps the standby hot.
//! 3. The primary crashes (fault or power cut). The disk reboots to its
//!    survivable state (`SimVfs::recover_view`); the standby — a
//!    separate node whose memory survives — drains the remaining trusted
//!    log bytes and [`Standby::promote`]s.
//! 4. The oracle: the promoted state must equal the serial reference
//!    model at a commit-consistent prefix at least the durable floor —
//!    zero lost committed writes the primary honestly promised, no
//!    resurrected deletes (the exact-state compare catches both), and
//!    the promotion itself must never error on a legal crash state.
//!
//! Everything is a pure function of `(spec.seed, spec)`; violations
//! reprint the spec for replay.

use std::sync::Arc;

use calc_common::simfs::OpCounts;
use calc_engine::standby::{Standby, StandbyConfig};
use calc_engine::StrategyKind;
use calc_testkit::registry;

use crate::driver::{
    check_promoted, refused_not_tc, restart, run_live, violation, LiveHooks, SimSpec, Violation,
};

/// Specification of one two-node failover experiment.
#[derive(Clone, Debug)]
pub struct FailoverSpec {
    /// The primary: seed, strategy (the standby runs the same one), armed
    /// fault, workload and checkpoint cadence, retention. Segmentation is
    /// mandatory for a standby — the tailer speaks the segmented format.
    pub primary: SimSpec,
    /// The standby polls the log tail after every N transactions.
    pub poll_every: u64,
}

impl FailoverSpec {
    /// The standard small experiment: 48 transactions, checkpoint every
    /// 12, sync every 8, standby polling every 4, small segments with
    /// retention on.
    pub fn smoke(kind: StrategyKind, seed: u64) -> Self {
        FailoverSpec {
            primary: SimSpec {
                txns: 48,
                checkpoint_every: 12,
                log_segment_bytes: 512,
                truncate_log: true,
                ..SimSpec::smoke(kind, seed)
            },
            poll_every: 4,
        }
    }
}

/// A promotion-oracle violation; the message embeds the full spec.
pub type FailoverViolation = Violation<FailoverSpec>;

impl std::fmt::Display for FailoverViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failover oracle violation [seed={:#x} kind={} fault={:?} mode={:?} poll_every={}]: {}",
            self.spec.primary.seed,
            self.spec.primary.kind,
            self.spec.primary.fault,
            self.spec.primary.dir_crash_mode,
            self.spec.poll_every,
            self.detail
        )
    }
}

/// What one failover experiment did.
#[derive(Clone, Debug, Default)]
pub struct FailoverReport {
    /// Transactions that committed on the primary before the crash.
    pub committed: u64,
    /// Whether the armed fault fired mid-run (vs. the power cut).
    pub crashed_mid_run: bool,
    /// The commit-consistent prefix the promoted standby serves.
    pub promoted_prefix: u64,
    /// The durability floor the primary honestly established.
    pub durable_floor: u64,
    /// IO operation counts at crash time — the sweep domain.
    pub counts: OpCounts,
    /// Standby polls that ran during the live phase.
    pub standby_polls: u64,
    /// Times the live tailer rebuilt state from the covering checkpoint
    /// because retention outran its cursor.
    pub rebootstraps: u64,
    /// Promotion rebuilt from a checkpoint chain that had run ahead of
    /// the tailed log (commits existing only in the chain).
    pub promote_rebuilt: bool,
    /// Times the tailer lost its cursor segment to retention at all.
    pub lost_prefix_events: u64,
    /// Commits the standby applied from the log over its lifetime.
    pub commits_applied: u64,
    /// The standby was only opened after the crash (the fault fired
    /// before the topology came up; promotion degenerates to bootstrap).
    pub late_standby: bool,
    /// True when the strategy was refused as not-transaction-consistent
    /// (expected for Fuzzy: its checkpoints cannot seed a standby).
    pub refused_not_tc: bool,
}

/// The standby riding along the primary's live run.
struct StandbyHooks {
    poll_every: u64,
    config: StandbyConfig,
    standby: Option<Standby>,
    polls: u64,
    /// `Standby::open` refused the strategy (the Fuzzy oracle).
    refused: bool,
}

impl StandbyHooks {
    fn poll(&mut self) {
        if let Some(s) = self.standby.as_mut() {
            // A poll error during the live phase is transient from the
            // standby's view (the cursor held); the next poll retries.
            // The crash itself surfaces as primary-side errors.
            self.polls += 1;
            let _ = s.poll();
        }
    }
}

impl LiveHooks for StandbyHooks {
    /// The standby comes up once the primary's durable footprint exists.
    /// A refusal here is the Fuzzy oracle; an IO error means the fault
    /// already fired (late standby, handled after reboot).
    fn primary_up(&mut self) -> bool {
        match Standby::open(self.config.clone(), registry()) {
            Ok(s) => self.standby = Some(s),
            Err(e) if refused_not_tc(&e) => {
                self.refused = true;
                return false;
            }
            Err(_) => {}
        }
        // Anchor poll: pin the cursor to the current lowest segment so
        // later retention genuinely races it.
        self.poll();
        true
    }

    /// The standby polls *before* the primary's checkpoint-and-truncate
    /// step: a continuously-polling standby observes a rotation before
    /// retention can remove the sealed segment its cursor sat in, so a
    /// hot standby deterministically rides through retention. Laggy
    /// standbys (large `poll_every`) still cross the truncation race at
    /// arbitrary points.
    fn after_txn(&mut self, i: u64) {
        if (i + 1).is_multiple_of(self.poll_every) {
            self.poll();
        }
    }
}

/// Runs one failover experiment end to end. `Ok` means the promotion
/// oracle held.
#[allow(clippy::result_large_err)] // violations are terminal and rare
pub fn run_failover(spec: &FailoverSpec) -> Result<FailoverReport, FailoverViolation> {
    let primary = &spec.primary;
    let vfs = primary.vfs();

    // ---- Phase 1: live run on the primary, standby tailing alongside.
    let mut hooks = StandbyHooks {
        poll_every: spec.poll_every,
        config: primary.standby_config(Arc::new(vfs.clone())),
        standby: None,
        polls: 0,
        refused: false,
    };
    let run = run_live(&vfs, primary, &mut hooks);
    let (committed, durable_floor) = (run.committed, run.durable_floor);
    let StandbyHooks {
        standby,
        polls: standby_polls,
        refused,
        ..
    } = hooks;
    if refused {
        return Ok(FailoverReport {
            counts: vfs.counts(),
            refused_not_tc: true,
            ..FailoverReport::default()
        });
    }

    let crashed_mid_run = vfs.crashed();
    if !crashed_mid_run {
        vfs.force_crash();
    }
    let counts = vfs.counts();

    // ---- Phase 2: the disk reboots; the standby (whose memory survives
    // the primary's crash) drains the surviving trusted log and promotes.
    vfs.recover_view();
    let late_standby = standby.is_none();
    let promoted = match standby {
        Some(standby) => standby.promote(),
        // The fault fired before the standby came up: it starts now,
        // against the post-crash durable state — a restart, which must
        // still satisfy the oracle.
        None => restart(primary, Arc::new(vfs.clone())),
    }
    .map_err(|e| violation(spec, format!("promotion failed on a legal crash state: {e}")))?;

    // ---- Phase 3: the promotion oracle.
    let promoted_prefix = check_promoted(spec, "promoted", &promoted, &committed, durable_floor)?;

    Ok(FailoverReport {
        committed: committed.len() as u64,
        crashed_mid_run,
        promoted_prefix,
        durable_floor,
        counts,
        standby_polls,
        rebootstraps: promoted.rebootstraps(),
        promote_rebuilt: promoted.promote_rebuilt(),
        lost_prefix_events: promoted.lost_prefix_events(),
        commits_applied: promoted.commits_applied(),
        late_standby,
        refused_not_tc: false,
    })
}
