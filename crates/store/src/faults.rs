//! Deterministic fault injection for durability testing.
//!
//! A [`FaultPlan`] is a set of armed [`Failpoint`]s, one queue per
//! [`FaultSite`]. Production code consults the plan (if one is installed)
//! at each instrumented I/O site via [`FaultPlan::on_op`] and acts on the
//! returned [`FaultAction`] — returning an injected error, writing a
//! deliberately short or torn prefix, or sleeping. With no plan
//! installed every site is a no-op, so the instrumentation costs one
//! mutex-guarded `Option` clone per I/O call on the cold persistence path
//! and nothing on the query hot path.
//!
//! Plans are seedable ([`FaultPlan::seeded`]): a fault test derives
//! every "random" choice (which op to kill, where to cut a record) from
//! the plan's own xorshift stream, so a failing run replays exactly from
//! its seed.
//!
//! Only the *front* failpoint of a site's queue is active at a time; when
//! a one-shot point fires it is popped and the next becomes active.
//! Persistent points ([`Failpoint::ErrAfter`], [`Failpoint::SlowIo`]) stay
//! active until [`FaultPlan::clear`]ed.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

/// An instrumented operation class a failpoint can attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Staging the snapshot temp file during rotation (create+write+fsync).
    SnapshotWrite,
    /// Creating the new generation's journal and writing its header.
    JournalCreate,
    /// Appending a record batch to the active journal.
    JournalAppend,
    /// Fsyncing the active journal (explicit `sync` or group commit).
    JournalSync,
    /// Directory fsyncs inside rotation.
    DirSync,
    /// The atomic snapshot rename (the rotation commit point).
    Rename,
}

impl FaultSite {
    /// Stable lowercase name (for logs and artifacts).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SnapshotWrite => "snapshot_write",
            FaultSite::JournalCreate => "journal_create",
            FaultSite::JournalAppend => "journal_append",
            FaultSite::JournalSync => "journal_sync",
            FaultSite::DirSync => "dir_sync",
            FaultSite::Rename => "rename",
        }
    }
}

/// One armed failure behavior.
#[derive(Debug, Clone, Copy)]
pub enum Failpoint {
    /// Fail the next op at this site, then disarm.
    ErrOnce,
    /// Let `n` ops through, then fail **every** subsequent op until the
    /// site is [`FaultPlan::clear`]ed — models a store that stays down.
    ErrAfter {
        /// Ops to let through before failing.
        n: u64,
    },
    /// Write only the first `keep` bytes of the next write, then fail —
    /// models a partial write cut by a crash. Disarms after firing.
    ShortWrite {
        /// Bytes of the attempted write that reach the file.
        keep: usize,
    },
    /// Cut the next journal append strictly inside its final record (a
    /// torn frame), then fail. Disarms after firing.
    TornRecord,
    /// Delay every op at this site by `millis` until cleared — models a
    /// saturated disk. Never fails the op.
    SlowIo {
        /// Injected latency per op.
        millis: u64,
    },
}

impl Failpoint {
    fn name(self) -> &'static str {
        match self {
            Failpoint::ErrOnce => "err_once",
            Failpoint::ErrAfter { .. } => "err_after",
            Failpoint::ShortWrite { .. } => "short_write",
            Failpoint::TornRecord => "torn_record",
            Failpoint::SlowIo { .. } => "slow_io",
        }
    }
}

/// What the instrumented call site must do for the current op.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// No fault: perform the op normally.
    Proceed,
    /// Fail the op with this injected error message (nothing written).
    Error(String),
    /// Write only the first `keep` bytes, then fail the op.
    ShortWrite {
        /// Bytes to actually write before failing.
        keep: usize,
    },
    /// Cut the write strictly inside its final record, then fail the op.
    TornRecord,
}

struct Armed {
    point: Failpoint,
    /// Ops seen by this failpoint while it sat at the front of its queue
    /// (drives the `ErrAfter` countdown).
    seen: u64,
}

struct PlanInner {
    sites: HashMap<FaultSite, VecDeque<Armed>>,
    fired: Vec<(FaultSite, &'static str)>,
    rng: u64,
}

/// A deterministic, seedable schedule of failpoints.
///
/// Shared via `Arc` between the test/harness (which arms points and reads
/// the fired log) and the instrumented code (which calls
/// [`FaultPlan::on_op`]). All methods take `&self`.
pub struct FaultPlan {
    inner: Mutex<PlanInner>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("fault plan lock");
        f.debug_struct("FaultPlan")
            .field("armed_sites", &inner.sites.len())
            .field("fired", &inner.fired.len())
            .finish()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// An empty plan (seed 1).
    pub fn new() -> Self {
        Self::seeded(1)
    }

    /// An empty plan whose [`FaultPlan::next_u64`] stream derives from
    /// `seed` — a fault test's only randomness source.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            inner: Mutex::new(PlanInner {
                sites: HashMap::new(),
                fired: Vec::new(),
                // xorshift needs a nonzero state; the constant keeps
                // distinct small seeds distinct and maps seed 0 somewhere
                // useful.
                rng: seed ^ 0x9E37_79B9_7F4A_7C15,
            }),
        }
    }

    /// Arm `point` at `site`, behind any already-armed points there.
    pub fn arm(&self, site: FaultSite, point: Failpoint) {
        let mut inner = self.inner.lock().expect("fault plan lock");
        inner.sites.entry(site).or_default().push_back(Armed { point, seen: 0 });
    }

    /// Disarm everything at `site` (including persistent points).
    pub fn clear(&self, site: FaultSite) {
        self.inner.lock().expect("fault plan lock").sites.remove(&site);
    }

    /// Disarm every site.
    pub fn clear_all(&self) {
        self.inner.lock().expect("fault plan lock").sites.clear();
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> usize {
        self.inner.lock().expect("fault plan lock").fired.len()
    }

    /// The (site, failpoint-name) log of every fired fault, in order.
    pub fn fired_log(&self) -> Vec<(FaultSite, &'static str)> {
        self.inner.lock().expect("fault plan lock").fired.clone()
    }

    /// Next value of the plan's deterministic xorshift64 stream.
    pub fn next_u64(&self) -> u64 {
        let mut inner = self.inner.lock().expect("fault plan lock");
        let mut x = inner.rng;
        if x == 0 {
            x = 0x2545_F491_4F6C_DD1D;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        inner.rng = x;
        x
    }

    /// Consult the plan for one op at `site`. [`Failpoint::SlowIo`] sleeps
    /// here (outside the plan lock) and reports [`FaultAction::Proceed`];
    /// every other firing is returned for the call site to act on.
    pub fn on_op(&self, site: FaultSite) -> FaultAction {
        let mut sleep_ms = None;
        let action = {
            let mut inner = self.inner.lock().expect("fault plan lock");
            let Some(queue) = inner.sites.get_mut(&site) else {
                return FaultAction::Proceed;
            };
            let Some(front) = queue.front_mut() else {
                return FaultAction::Proceed;
            };
            let point = front.point;
            let mut pop = false;
            let action = match point {
                Failpoint::ErrOnce => {
                    pop = true;
                    FaultAction::Error(format!("injected error at {}", site.name()))
                }
                Failpoint::ErrAfter { n } => {
                    if front.seen < n {
                        front.seen += 1;
                        FaultAction::Proceed
                    } else {
                        FaultAction::Error(format!("injected persistent error at {}", site.name()))
                    }
                }
                Failpoint::ShortWrite { keep } => {
                    pop = true;
                    FaultAction::ShortWrite { keep }
                }
                Failpoint::TornRecord => {
                    pop = true;
                    FaultAction::TornRecord
                }
                Failpoint::SlowIo { millis } => {
                    sleep_ms = Some(millis);
                    FaultAction::Proceed
                }
            };
            let fires = !matches!(action, FaultAction::Proceed) || sleep_ms.is_some();
            if fires {
                inner.fired.push((site, point.name()));
            }
            if pop {
                let queue = inner.sites.get_mut(&site).expect("site queue");
                queue.pop_front();
                if queue.is_empty() {
                    inner.sites.remove(&site);
                }
            }
            action
        };
        if let Some(ms) = sleep_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_proceeds() {
        let plan = FaultPlan::new();
        for _ in 0..10 {
            assert!(matches!(plan.on_op(FaultSite::JournalAppend), FaultAction::Proceed));
        }
        assert_eq!(plan.fired(), 0);
    }

    #[test]
    fn err_once_fires_once_then_disarms() {
        let plan = FaultPlan::new();
        plan.arm(FaultSite::JournalAppend, Failpoint::ErrOnce);
        assert!(matches!(plan.on_op(FaultSite::JournalAppend), FaultAction::Error(_)));
        assert!(matches!(plan.on_op(FaultSite::JournalAppend), FaultAction::Proceed));
        // Other sites are untouched.
        assert!(matches!(plan.on_op(FaultSite::JournalSync), FaultAction::Proceed));
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn err_after_is_persistent_until_cleared() {
        let plan = FaultPlan::new();
        plan.arm(FaultSite::SnapshotWrite, Failpoint::ErrAfter { n: 2 });
        assert!(matches!(plan.on_op(FaultSite::SnapshotWrite), FaultAction::Proceed));
        assert!(matches!(plan.on_op(FaultSite::SnapshotWrite), FaultAction::Proceed));
        for _ in 0..5 {
            assert!(matches!(plan.on_op(FaultSite::SnapshotWrite), FaultAction::Error(_)));
        }
        plan.clear(FaultSite::SnapshotWrite);
        assert!(matches!(plan.on_op(FaultSite::SnapshotWrite), FaultAction::Proceed));
    }

    #[test]
    fn queued_points_fire_in_order() {
        let plan = FaultPlan::new();
        plan.arm(FaultSite::JournalAppend, Failpoint::ShortWrite { keep: 3 });
        plan.arm(FaultSite::JournalAppend, Failpoint::TornRecord);
        assert!(matches!(
            plan.on_op(FaultSite::JournalAppend),
            FaultAction::ShortWrite { keep: 3 }
        ));
        assert!(matches!(plan.on_op(FaultSite::JournalAppend), FaultAction::TornRecord));
        assert!(matches!(plan.on_op(FaultSite::JournalAppend), FaultAction::Proceed));
        assert_eq!(
            plan.fired_log(),
            vec![
                (FaultSite::JournalAppend, "short_write"),
                (FaultSite::JournalAppend, "torn_record"),
            ]
        );
    }

    #[test]
    fn seeded_stream_is_deterministic() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let c = FaultPlan::seeded(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }
}
