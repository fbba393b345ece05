//! Concurrency contract of one BDD manager shared by borrowing: scoped
//! threads driving one `&BddManager` address the same DAG, so threads
//! hash-consing the same functions get *identical* handles, the node
//! count matches a sequential build (no duplicate insertion, ever), the
//! global node cap binds all threads together, and interleaved operations
//! never deadlock.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use xsynth_bdd::{Bdd, BddManager, NodeLimitExceeded};

/// A deterministic little formula family over `n` variables (XOR-chains,
/// AND/OR ladders and their negations, selected by `seed`); a capped
/// manager reports the trip as an error.
fn build_formula(m: &BddManager, n: usize, seed: u64) -> Result<Bdd, NodeLimitExceeded> {
    let mut acc = m.constant(seed & 1 == 0);
    for v in 0..n {
        let x = if (seed >> (v % 48)) & 1 == 0 {
            m.var(v)?
        } else {
            m.nvar(v)?
        };
        acc = match (seed >> (2 * v)) % 3 {
            0 => m.and(acc, x)?,
            1 => m.or(acc, x)?,
            _ => m.xor(acc, x)?,
        };
        if (seed >> (v % 31)) & 4 == 4 {
            acc = m.not(acc);
        }
    }
    Ok(acc)
}

#[test]
fn racing_threads_get_identical_canonical_handles() {
    const THREADS: usize = 8;
    const SEEDS: u64 = 24;
    let n = 12;
    let m = BddManager::new(n);
    // every thread builds every formula, racing on the same substrate
    let per_thread: Vec<Vec<Bdd>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let local = &m;
                s.spawn(move || {
                    (0..SEEDS)
                        // stagger the order per thread so the races cover
                        // different allocation interleavings
                        .map(|k| (k + t as u64) % SEEDS)
                        .map(|seed| build_formula(local, n, seed).expect("uncapped"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no worker panics"))
            .collect()
    });
    // thread t built seed (k + t) % SEEDS at position k; re-align back to
    // seed order, then demand handle-for-handle equality across threads
    let aligned: Vec<Vec<Bdd>> = per_thread
        .iter()
        .enumerate()
        .map(|(t, v)| {
            (0..SEEDS as usize)
                .map(|k| v[(k + SEEDS as usize - t % SEEDS as usize) % SEEDS as usize])
                .collect()
        })
        .collect();
    for t in 1..THREADS {
        assert_eq!(
            aligned[0], aligned[t],
            "thread {t} disagrees on canonical handles"
        );
    }
    // replaying the whole family sequentially allocates nothing new: the
    // substrate already holds every node, proving the racing inserts were
    // deduplicated rather than duplicated
    let after_race = m.num_nodes();
    let replay = &m;
    for seed in 0..SEEDS {
        build_formula(replay, n, seed).expect("uncapped");
    }
    assert_eq!(
        m.num_nodes(),
        after_race,
        "sequential replay allocated new nodes — the racy build duplicated some"
    );
    // and a fresh manager building the same family sequentially needs at
    // least as many nodes: the shared build can't have lost anything
    let fresh = BddManager::new(n);
    for seed in 0..SEEDS {
        build_formula(&fresh, n, seed).expect("uncapped");
    }
    assert!(fresh.num_nodes() <= after_race);
}

#[test]
fn node_cap_is_enforced_at_the_true_global_count() {
    // Regression for the pre-shared-substrate bug where every worker got a
    // private clone with a private cap, so N workers could collectively
    // allocate N× the budget. Here 8 threads hammer one capped substrate
    // with *distinct* functions; the global count must never pass the cap.
    const CAP: usize = 200;
    const THREADS: usize = 8;
    let n = 16;
    let m = BddManager::with_node_limit(n, CAP);
    let trips = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let local = &m;
            let trips = &trips;
            s.spawn(move || {
                for seed in 0..64u64 {
                    // disjoint seed ranges per thread → mostly distinct
                    // functions → real allocation pressure from each
                    let seed = seed + 1000 * t as u64;
                    if build_formula(local, n, seed).is_err() {
                        trips.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert!(
        m.num_nodes() <= CAP,
        "global count {} exceeds the shared cap {CAP}",
        m.num_nodes()
    );
    assert!(
        trips.load(Ordering::Relaxed) > 0,
        "the workload was sized to trip a {CAP}-node cap"
    );
    // the documented keep-best contract: handles made before the trip are
    // still usable for read-only work
    let probe = &m;
    let a = probe.var(0).expect("var 0 was interned before the cap");
    assert!(probe.eval(a, 0b1));
}

/// Complement-edge canonicity under contention: after 8 threads race the
/// same formula family *and* its negations into one substrate, the stored
/// node set must be in canonical form — no then-edge carries a complement,
/// no node has equal children, every unique-table key round-trips — and
/// `f`/`¬f` must address the same stored node (handles differing only in
/// the complement bit, identical DAG sizes, zero allocation to negate).
#[test]
fn racing_negations_keep_the_stored_node_set_canonical() {
    const THREADS: usize = 8;
    const SEEDS: u64 = 24;
    let n = 12;
    let m = BddManager::new(n);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let local = &m;
            s.spawn(move || {
                for k in 0..SEEDS {
                    let seed = (k + t as u64) % SEEDS;
                    let f = build_formula(local, n, seed).expect("uncapped");
                    // negate-heavy traffic: half the threads work on ¬f
                    let g = if t % 2 == 0 { f } else { local.not(f) };
                    let h = local.xor(g, local.constant(true)).expect("uncapped");
                    assert_eq!(h, local.not(g), "xor-with-one is negation");
                }
            });
        }
    });
    assert_eq!(
        m.canonical_violations(),
        0,
        "a stored then-edge complement or a redundant node survived the race"
    );
    let probe = &m;
    let before = m.num_nodes();
    for seed in 0..SEEDS {
        let f = build_formula(probe, n, seed).expect("replay allocates nothing");
        let nf = probe.not(f);
        assert_eq!(nf.index(), f.index() ^ 1, "f and ¬f share one stored node");
        assert_eq!(probe.size(f), probe.size(nf), "shared DAG, equal size");
        assert_eq!(probe.not(nf), f, "double negation is the identity");
    }
    assert_eq!(m.num_nodes(), before, "negation sweeps must not allocate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interleaved operations from several threads — arbitrary op
    /// mixes, with and without a node cap — always terminate (no deadlock:
    /// the substrate holds at most one shard lock at a time) and never
    /// double-insert (same handle ⇔ same function, counted once).
    #[test]
    fn interleaved_try_ops_never_deadlock_or_double_insert(
        seeds in proptest::collection::vec(0u64..1 << 40, 4..12),
        raw_cap in 0usize..400,
        threads in 2usize..6,
    ) {
        let n = 10;
        // raw_cap below 50 means "uncapped"; otherwise it is the cap
        let cap = (raw_cap >= 50).then_some(raw_cap);
        let m = match cap {
            Some(c) => BddManager::with_node_limit(n, c),
            None => BddManager::new(n),
        };
        let results: Vec<Vec<Option<Bdd>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let local = &m;
                    let seeds = seeds.clone();
                    s.spawn(move || {
                        seeds
                            .iter()
                            .cycle()
                            .skip(t)
                            .take(seeds.len())
                            .map(|&seed| build_formula(local, n, seed).ok())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        });
        // under a cap some builds may fail, but every *successful* build
        // of the same seed must have produced the same canonical handle
        let mut by_seed: std::collections::HashMap<u64, Bdd> = std::collections::HashMap::new();
        for (t, thread_results) in results.iter().enumerate() {
            for (j, maybe) in thread_results.iter().enumerate() {
                let seed = seeds[(j + t) % seeds.len()];
                if let Some(b) = maybe {
                    if let Some(prev) = by_seed.insert(seed, *b) {
                        prop_assert_eq!(prev, *b, "seed {} got two handles", seed);
                    }
                }
            }
        }
        if let Some(c) = cap {
            prop_assert!(m.num_nodes() <= c, "count {} over cap {}", m.num_nodes(), c);
        }
        // replay sequentially: every formula that succeeded above must
        // still resolve to its recorded handle (canonicity survives races)
        let replay = &m;
        replay.set_node_limit(None);
        for (&seed, &b) in &by_seed {
            let again = build_formula(replay, n, seed).expect("uncapped replay");
            prop_assert_eq!(again, b);
        }
        prop_assert_eq!(m.canonical_violations(), 0);
    }

    /// Boolean identities that exercise every complement-normalization
    /// path — De Morgan, ITE expansion, XOR-as-negation, absorption of
    /// `f · ¬f` — hold as *handle equalities* on randomly built pairs, and
    /// none of them leave a non-canonical node behind.
    #[test]
    fn complement_identities_hold_as_handle_equalities(
        sa in 0u64..1 << 40,
        sb in 0u64..1 << 40,
    ) {
        let n = 10;
        let m = BddManager::new(n);
        let f = build_formula(&m, n, sa).expect("uncapped");
        let g = build_formula(&m, n, sb).expect("uncapped");
        let (nf, ng) = (m.not(f), m.not(g));
        // De Morgan, both directions
        let and_fg = m.and(f, g).expect("uncapped");
        let or_nf_ng = m.or(nf, ng).expect("uncapped");
        prop_assert_eq!(m.not(and_fg), or_nf_ng);
        let or_fg = m.or(f, g).expect("uncapped");
        let and_nf_ng = m.and(nf, ng).expect("uncapped");
        prop_assert_eq!(m.not(or_fg), and_nf_ng);
        // ITE via its and/or expansion
        let ite = m.ite(f, g, ng).expect("uncapped");
        let t = m.and(f, g).expect("uncapped");
        let e = m.and(nf, ng).expect("uncapped");
        prop_assert_eq!(ite, m.or(t, e).expect("uncapped"));
        // XOR with ONE is negation; XOR with itself annihilates
        prop_assert_eq!(m.xor(f, Bdd::ONE).expect("uncapped"), nf);
        prop_assert_eq!(m.xor(f, f).expect("uncapped"), Bdd::ZERO);
        prop_assert_eq!(m.xor(f, nf).expect("uncapped"), Bdd::ONE);
        // f · ¬f = 0 and f + ¬f = 1 without allocating
        let before = m.num_nodes();
        prop_assert_eq!(m.and(f, nf).expect("uncapped"), Bdd::ZERO);
        prop_assert_eq!(m.or(f, nf).expect("uncapped"), Bdd::ONE);
        prop_assert_eq!(m.num_nodes(), before);
        prop_assert_eq!(m.canonical_violations(), 0);
    }
}
