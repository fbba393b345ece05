//! Deterministic fault injection: named failpoints compiled in only under
//! the `failpoints` cargo feature and armed at runtime via a [`FailPlan`].
//!
//! A failpoint is a named site in the pipeline (`bdd.alloc`,
//! `core.factor`, …) marked with the [`fail_point!`](crate::fail_point)
//! macro. With the feature off the macro expands to nothing — zero
//! overhead, zero behavior change. With the feature on, every execution
//! of the site *registers* its name (so a chaos harness can enumerate
//! every reachable site) and consults the armed plan:
//!
//! - not armed → no effect;
//! - armed with [`Action::Error`] → the macro's error arm runs (the site
//!   returns its typed error), or `hit` returns `true` for bare sites;
//! - armed with [`Action::Panic`] → the site panics with a recognizable
//!   `"failpoint <name> tripped"` message;
//! - armed with [`Action::Delay`] → the site sleeps, then continues.
//!
//! Trips are deterministic: a plan entry fires on the Nth *hit* of the
//! site (1-based) and keeps firing for a configurable number of
//! consecutive hits (default: every hit from the Nth on). Hit counts are
//! process-global; a synthesis job runs on one thread, so the order in
//! which its sites are hit is fixed by the job itself.
//!
//! The environment syntax accepted by [`FailPlan::parse`] /
//! [`arm_from_env`] (variable `XSYNTH_FAILPOINTS`):
//!
//! ```text
//! point=action[@nth[xcount]] [; point=action[@nth[xcount]] ...]
//!
//! bdd.alloc=error            trip every hit, starting at the first
//! core.factor=panic@3        panic on the 3rd hit and every later one
//! sim.block=delay(5)@2x4     sleep 5ms on hits 2,3,4,5 only
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed failpoint does when it trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The site takes its typed-error arm (bare sites report `true`).
    Error,
    /// The site panics with `"failpoint <name> tripped"`.
    Panic,
    /// The site sleeps for the duration, then proceeds normally.
    Delay(Duration),
}

/// One armed entry: the action plus the deterministic trip window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    action: Action,
    /// First hit (1-based) that trips.
    nth: u64,
    /// How many consecutive hits trip from `nth` on (`u64::MAX` = all).
    count: u64,
}

/// A set of failpoints to arm, built with [`FailPlan::point`] or parsed
/// from the `XSYNTH_FAILPOINTS` environment syntax.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailPlan {
    entries: BTreeMap<String, Entry>,
}

impl FailPlan {
    /// An empty plan (arming it disarms everything).
    pub fn new() -> FailPlan {
        FailPlan::default()
    }

    /// Adds a failpoint tripping on every hit from the `nth` (1-based) on.
    #[must_use]
    pub fn point(self, name: &str, action: Action, nth: u64) -> FailPlan {
        self.point_for(name, action, nth, u64::MAX)
    }

    /// Adds a failpoint tripping on `count` consecutive hits starting at
    /// the `nth` (1-based).
    #[must_use]
    pub fn point_for(mut self, name: &str, action: Action, nth: u64, count: u64) -> FailPlan {
        self.entries.insert(
            name.to_string(),
            Entry {
                action,
                nth: nth.max(1),
                count,
            },
        );
        self
    }

    /// Parses the environment syntax (see the module docs).
    ///
    /// # Errors
    ///
    /// Reports the offending clause on malformed input.
    pub fn parse(spec: &str) -> Result<FailPlan, String> {
        let mut plan = FailPlan::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, rest) = clause
                .split_once('=')
                .ok_or_else(|| format!("failpoint clause {clause:?}: missing '='"))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(format!("failpoint clause {clause:?}: empty point name"));
            }
            let (action_s, window) = match rest.split_once('@') {
                Some((a, w)) => (a.trim(), Some(w.trim())),
                None => (rest.trim(), None),
            };
            let action = if action_s == "error" {
                Action::Error
            } else if action_s == "panic" {
                Action::Panic
            } else if let Some(ms) = action_s
                .strip_prefix("delay(")
                .and_then(|s| s.strip_suffix(')'))
            {
                let ms: u64 = ms
                    .trim()
                    .parse()
                    .map_err(|_| format!("failpoint clause {clause:?}: bad delay millis"))?;
                Action::Delay(Duration::from_millis(ms))
            } else {
                return Err(format!(
                    "failpoint clause {clause:?}: unknown action {action_s:?} \
                     (want error, panic, or delay(ms))"
                ));
            };
            let (nth, count) = match window {
                None => (1, u64::MAX),
                Some(w) => match w.split_once('x') {
                    None => (
                        w.parse()
                            .map_err(|_| format!("failpoint clause {clause:?}: bad hit index"))?,
                        u64::MAX,
                    ),
                    Some((n, c)) => (
                        n.trim()
                            .parse()
                            .map_err(|_| format!("failpoint clause {clause:?}: bad hit index"))?,
                        c.trim()
                            .parse()
                            .map_err(|_| format!("failpoint clause {clause:?}: bad trip count"))?,
                    ),
                },
            };
            plan = plan.point_for(name, action, nth, count);
        }
        Ok(plan)
    }
}

#[derive(Debug, Default)]
struct State {
    armed: BTreeMap<String, Entry>,
    hits: BTreeMap<String, u64>,
    seen: BTreeSet<String>,
}

fn state() -> &'static Mutex<State> {
    static STATE: Mutex<State> = Mutex::new(State {
        armed: BTreeMap::new(),
        hits: BTreeMap::new(),
        seen: BTreeSet::new(),
    });
    &STATE
}

fn lock() -> std::sync::MutexGuard<'static, State> {
    // a panic action unwinding through `hit` never holds the lock, but a
    // test harness catching that panic elsewhere may still poison it
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms `plan`, replacing whatever was armed, and resets all hit counts.
/// The registry of seen site names is preserved.
pub fn arm(plan: &FailPlan) {
    let mut s = lock();
    s.armed = plan.entries.clone();
    s.hits.clear();
}

/// Disarms every failpoint and resets all hit counts.
pub fn disarm() {
    arm(&FailPlan::new());
}

/// Arms the plan in `XSYNTH_FAILPOINTS`, if set.
///
/// # Errors
///
/// Reports a malformed plan (nothing is armed then).
pub fn arm_from_env() -> Result<(), String> {
    match std::env::var("XSYNTH_FAILPOINTS") {
        Ok(spec) => {
            let plan = FailPlan::parse(&spec).map_err(|e| format!("XSYNTH_FAILPOINTS: {e}"))?;
            arm(&plan);
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

/// Every failpoint name any `fail_point!` site has registered by
/// executing — the enumeration a chaos harness sweeps over.
pub fn registered() -> Vec<String> {
    lock().seen.iter().cloned().collect()
}

/// One execution of the named site: registers the name, bumps the hit
/// count, and applies the armed action if the hit falls in the trip
/// window. Returns `true` when an [`Action::Error`] trip fired (the site
/// must take its error arm).
///
/// # Panics
///
/// Panics (by design) when the site is armed with [`Action::Panic`] and
/// the hit trips.
pub fn hit(name: &str) -> bool {
    let action = {
        let mut s = lock();
        if !s.seen.contains(name) {
            s.seen.insert(name.to_string());
        }
        let n = s.hits.entry(name.to_string()).or_insert(0);
        *n += 1;
        let n = *n;
        match s.armed.get(name) {
            Some(e) if n >= e.nth && n - e.nth < e.count => Some(e.action),
            _ => None,
        }
    };
    match action {
        None => false,
        Some(Action::Error) => true,
        Some(Action::Panic) => panic!("failpoint {name} tripped"),
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed plan and hit counts are process-global, so every test
    // serializes on this lock and re-arms from scratch.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_hits_register_but_do_nothing() {
        let _g = exclusive();
        disarm();
        assert!(!hit("test.alpha"));
        assert!(registered().contains(&"test.alpha".to_string()));
    }

    #[test]
    fn error_trips_on_nth_hit_and_after() {
        let _g = exclusive();
        arm(&FailPlan::new().point("test.beta", Action::Error, 3));
        assert!(!hit("test.beta"));
        assert!(!hit("test.beta"));
        assert!(hit("test.beta"));
        assert!(hit("test.beta"));
        disarm();
        assert!(!hit("test.beta"));
    }

    #[test]
    fn trip_window_is_bounded_by_count() {
        let _g = exclusive();
        arm(&FailPlan::new().point_for("test.gamma", Action::Error, 2, 2));
        let fired: Vec<bool> = (0..5).map(|_| hit("test.gamma")).collect();
        assert_eq!(fired, [false, true, true, false, false]);
        disarm();
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        let _g = exclusive();
        arm(&FailPlan::new().point("test.delta", Action::Panic, 1));
        let err = std::panic::catch_unwind(|| hit("test.delta")).unwrap_err();
        disarm();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("failpoint test.delta tripped"));
    }

    #[test]
    fn rearming_resets_hit_counts() {
        let _g = exclusive();
        let plan = FailPlan::new().point("test.eps", Action::Error, 2);
        arm(&plan);
        assert!(!hit("test.eps"));
        assert!(hit("test.eps"));
        arm(&plan); // counts reset: first hit is hit #1 again
        assert!(!hit("test.eps"));
        assert!(hit("test.eps"));
        disarm();
    }

    #[test]
    fn parse_round_trips_the_documented_syntax() {
        let plan = FailPlan::parse("bdd.alloc=error; core.factor=panic@3 ;sim.block=delay(5)@2x4;")
            .expect("valid spec");
        let want = FailPlan::new()
            .point("bdd.alloc", Action::Error, 1)
            .point("core.factor", Action::Panic, 3)
            .point_for("sim.block", Action::Delay(Duration::from_millis(5)), 2, 4);
        assert_eq!(plan, want);
        assert_eq!(FailPlan::parse("  "), Ok(FailPlan::new()));
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "noequals",
            "=error",
            "p=explode",
            "p=delay(x)",
            "p=error@zero",
            "p=error@1xq",
        ] {
            assert!(FailPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        let _g = exclusive();
        arm(&FailPlan::new().point("test.zeta", Action::Delay(Duration::from_millis(5)), 1));
        let t0 = std::time::Instant::now();
        assert!(!hit("test.zeta"));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        disarm();
    }
}
