//! Property tests for the streaming plan layer.
//!
//! The properties that make streaming safe to trust:
//!
//! * a [`PlanStream`](tass::core::PlanStream) yields **exactly** the set
//!   a materialised plan would — no duplicates, no misses — for random
//!   prefix sets, random address sets, and random fresh-sample weights;
//! * shards partition the stream for any shard count;
//! * the cyclic permutation underneath covers each address of a random
//!   limit exactly once per cycle, sharded or not;
//! * the same laws hold for the generic layer at `u128` width:
//!   `Prefix<V6>` parse/format round-trips and canonicalises,
//!   `Cyclic<V6>` is exactly-once per cycle on small moduli, and v6
//!   streams shard-partition exactly like v4 ones;
//! * the fast paths equal the reference arithmetic they replace: the
//!   u64 cyclic step equals `mulmod_u128` on both sides of 2³², and the
//!   guide-table prefix pick equals a `partition_point` over the
//!   cumulative offsets, so the sampled multiset is unchanged.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tass::core::{PrefixOffsets, ProbePlan};
use tass::model::HostSet;
use tass::net::cyclic::{is_prime, is_prime_u128, mulmod_step, mulmod_u128, Cyclic, ZMAP_PRIME};
use tass::net::{AddrFamily, Prefix, V4, V6};

/// Moduli on both sides of the 32-bit line the u64 step takes: small
/// primes, the primes next to 2³¹ and 2³² (4294967291 is the largest
/// below 2³², ZMap's is the smallest above), and wider ones up past 2⁶⁴.
const STEP_PRIMES: [u128; 8] = [
    2,
    3,
    65_537,
    2_147_483_659, // smallest prime above 2^31
    4_294_967_291, // largest prime below 2^32
    ZMAP_PRIME as u128,
    1_099_511_627_791, // smallest prime above 2^40
    (1u128 << 64) + 13,
];

/// The pick the guide table replaces: a binary search of the prefix
/// start offsets.
fn reference_pick(starts: &[u128], off: u128) -> (usize, u128) {
    let j = starts.partition_point(|&c| c <= off) - 1;
    (j, off - starts[j])
}

/// `locate` agrees with the reference on every prefix boundary and
/// `draws` random offsets of the space.
fn check_locate<F: AddrFamily>(prefixes: &[Prefix<F>], rng: &mut SmallRng, draws: usize) {
    let idx = PrefixOffsets::new(prefixes);
    let total = idx.total();
    let want_total = prefixes
        .iter()
        .fold(0u128, |acc, p| acc.saturating_add(p.size_u128()));
    assert_eq!(total, want_total);
    if total == 0 {
        return;
    }
    let starts = idx.starts();
    let mut offs: Vec<u128> = vec![0, total - 1];
    for &c in starts.iter().filter(|&&c| c < total) {
        offs.push(c);
        offs.push(c.saturating_sub(1));
        offs.push((c + 1).min(total - 1));
    }
    offs.extend((0..draws).map(|_| rng.random_range(0..total)));
    for off in offs {
        assert_eq!(idx.locate(off), reference_pick(starts, off), "offset {off}");
    }
}

/// Collapse random `(addr, len)` pairs into a sorted, disjoint prefix
/// set (overlapping candidates are dropped, keeping the earlier one).
fn disjoint_prefixes(raw: &[(u32, u8)]) -> Vec<Prefix> {
    let mut candidates: Vec<Prefix> = raw
        .iter()
        .map(|&(addr, len)| {
            Prefix::new_truncate(addr, 20 + len % 13).expect("len in 20..=32 is valid")
        })
        .collect();
    candidates.sort_unstable();
    let mut out: Vec<Prefix> = Vec::new();
    for p in candidates {
        if out.last().is_none_or(|q| q.last() < p.first()) {
            out.push(p);
        }
    }
    out
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #[test]
    fn prefix_stream_yields_exactly_the_materialised_set(
        raw in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..7),
        perm_seed in any::<u64>(),
    ) {
        let prefixes = disjoint_prefixes(&raw);
        prop_assume!(!prefixes.is_empty());
        let plan = ProbePlan::Prefixes(prefixes.clone());
        let want = plan.materialize(0, &[]);
        // no misses, no duplicates: the sorted stream IS the target set
        let got = sorted(plan.stream(0, &[], perm_seed).collect());
        prop_assert_eq!(&got, &want);
        // and `All` over the same prefixes as announced space agrees
        let all = sorted(ProbePlan::All.stream(0, &prefixes, perm_seed).collect());
        prop_assert_eq!(&all, &want);
    }

    #[test]
    fn stream_shards_partition_for_any_worker_count(
        raw in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..6),
        perm_seed in any::<u64>(),
        total in 1u64..10,
    ) {
        let prefixes = disjoint_prefixes(&raw);
        prop_assume!(!prefixes.is_empty());
        let plan = ProbePlan::Prefixes(prefixes);
        let mut union: Vec<u32> = Vec::new();
        for shard in 0..total {
            union.extend(plan.stream_shard(0, &[], perm_seed, shard, total));
        }
        // partition = union covers everything AND sizes add up (no overlap)
        prop_assert_eq!(sorted(union), plan.materialize(0, &[]));
    }

    #[test]
    fn addr_stream_matches_hitlist_for_any_shard_count(
        addrs in proptest::collection::vec(any::<u32>(), 0..200),
        total in 1u64..6,
    ) {
        let plan: ProbePlan = ProbePlan::Addrs(HostSet::from_addrs(addrs));
        let want = plan.materialize(0, &[]);
        let mut union: Vec<u32> = Vec::new();
        for shard in 0..total {
            union.extend(plan.stream_shard(0, &[], 0, shard, total));
        }
        prop_assert_eq!(sorted(union), want);
    }

    #[test]
    fn fresh_sample_draws_exactly_per_cycle_weighted_into_space(
        raw in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..5),
        per_cycle in 0u64..1500,
        seed in any::<u64>(),
        cycle in 0u32..5,
        total in 1u64..6,
    ) {
        let announced = disjoint_prefixes(&raw);
        prop_assume!(!announced.is_empty());
        let plan = ProbePlan::FreshSample { per_cycle, seed };
        let drawn: Vec<u32> = plan.stream(cycle, &announced, 0).collect();
        // exactly the advertised weight, every draw inside announced space
        prop_assert_eq!(drawn.len() as u64, per_cycle);
        prop_assert!(drawn
            .iter()
            .all(|&a| announced.iter().any(|p| p.contains_addr(a))));
        // deterministic in (seed, cycle), and shard-invariant as a multiset
        let again: Vec<u32> = plan.stream(cycle, &announced, 99).collect();
        prop_assert_eq!(&drawn, &again, "perm_seed must not change the sample");
        let mut union: Vec<u32> = Vec::new();
        for shard in 0..total {
            union.extend(plan.stream_shard(cycle, &announced, 0, shard, total));
        }
        prop_assert_eq!(sorted(union), sorted(drawn));
    }

    #[test]
    fn cyclic_iterator_covers_each_address_exactly_once_per_cycle(
        limit in 1u64..1800,
        seed in any::<u64>(),
        total in 1u64..5,
    ) {
        // smallest prime strictly above the limit, as the walks use
        let mut p = limit + 1;
        while !is_prime(p) {
            p += 1;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let group: Cyclic = Cyclic::new(p, &mut rng).expect("p is prime");
        let mut addrs: Vec<u32> = (0..total)
            .flat_map(|s| group.addresses(s, total, limit))
            .collect();
        addrs.sort_unstable();
        let want: Vec<u32> = (0..limit as u32).collect();
        prop_assert_eq!(addrs, want, "one full cycle = one visit per address");
    }

    // ---- the generic layer at u128 width ----

    #[test]
    fn v6_prefix_parse_format_roundtrip_and_canonicalisation(
        addr in any::<u128>(),
        len in 0u8..=128,
    ) {
        // truncation canonicalises: the result reconstructs exactly and
        // still covers the seed address
        let p = Prefix::<V6>::new_truncate(addr, len).unwrap();
        prop_assert!(Prefix::<V6>::new(p.addr(), p.len()).is_ok());
        prop_assert!(p.contains_addr(addr));
        // text round-trip through RFC 5952 formatting
        let q: Prefix<V6> = p.to_string().parse().unwrap();
        prop_assert_eq!(p, q);
        // non-canonical text is rejected unless the host bits are zero
        if p.len() > 0 && !p.is_host() {
            let hosty = Prefix::<V6>::host(p.first() | 1);
            let non_canonical = format!("{}/{}", hosty.to_string().trim_end_matches("/128"), p.len());
            prop_assert!(non_canonical.parse::<Prefix<V6>>().is_err());
        }
    }

    #[test]
    fn v6_cyclic_exactly_once_per_cycle_on_small_moduli(
        limit in 1u64..1200,
        seed in any::<u64>(),
        total in 1u64..5,
    ) {
        let mut p = u128::from(limit) + 1;
        while !is_prime_u128(p) {
            p += 1;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let group: Cyclic<V6> = Cyclic::new(p, &mut rng).expect("p is prime");
        let mut addrs: Vec<u128> = (0..total)
            .flat_map(|s| group.addresses(s, total, u128::from(limit)))
            .collect();
        addrs.sort_unstable();
        let want: Vec<u128> = (0..u128::from(limit)).collect();
        prop_assert_eq!(addrs, want, "one full v6 cycle = one visit per address");
    }

    #[test]
    fn v6_streams_shard_partition_at_u128_width(
        raw in proptest::collection::vec((any::<u128>(), any::<u8>()), 1..5),
        per_cycle in 0u64..600,
        sample_seed in any::<u64>(),
        perm_seed in any::<u64>(),
        total in 1u64..6,
    ) {
        // disjoint v6 prefixes at enumerable block scale (/116–/128),
        // spread across the full 128-bit space
        let mut candidates: Vec<Prefix<V6>> = raw
            .iter()
            .map(|&(addr, len)| {
                Prefix::<V6>::new_truncate(addr, 116 + len % 13).expect("len in 116..=128")
            })
            .collect();
        candidates.sort_unstable();
        let mut announced: Vec<Prefix<V6>> = Vec::new();
        for p in candidates {
            if announced.last().is_none_or(|q| q.last() < p.first()) {
                announced.push(p);
            }
        }
        prop_assume!(!announced.is_empty());

        for plan in [
            ProbePlan::<V6>::All,
            ProbePlan::FreshSample { per_cycle, seed: sample_seed },
        ] {
            let want = plan.materialize(3, &announced);
            let got: Vec<u128> = plan.stream(3, &announced, perm_seed).collect();
            let mut got_sorted = got;
            got_sorted.sort_unstable();
            prop_assert_eq!(&got_sorted, &want, "{:?}", plan);
            let mut union: Vec<u128> = Vec::new();
            for shard in 0..total {
                union.extend(plan.stream_shard(3, &announced, perm_seed, shard, total));
            }
            union.sort_unstable();
            prop_assert_eq!(&union, &want, "{:?} sharded {}", plan, total);
        }
    }

    // ---- fast paths against their reference arithmetic ----

    #[test]
    fn u64_cyclic_step_equals_mulmod_u128_across_2_pow_32(
        which in 0usize..STEP_PRIMES.len(),
        a in any::<u128>(),
        b in any::<u128>(),
    ) {
        let p = STEP_PRIMES[which];
        prop_assert!(is_prime_u128(p), "{} is prime", p);
        // the walk only ever multiplies reduced operands; the extremes
        // (p − 1)² are the largest products the u64 path must hold
        for (x, y) in [(a % p, b % p), (p - 1, p - 1), (p - 1, b % p), (0, a % p)] {
            prop_assert_eq!(mulmod_step(x, y, p), mulmod_u128(x, y, p), "{} * {} mod {}", x, y, p);
        }
    }

    #[test]
    fn guide_table_pick_equals_partition_point_v4(
        raw in proptest::collection::vec((any::<u32>(), 8u8..=32), 1..40),
        seed in any::<u64>(),
    ) {
        // any prefix list, in list order: overlaps and repeats included
        let prefixes: Vec<Prefix> = raw
            .iter()
            .map(|&(addr, len)| Prefix::new_truncate(addr, len).expect("len ≤ 32"))
            .collect();
        check_locate::<V4>(&prefixes, &mut SmallRng::seed_from_u64(seed), 200);
    }

    #[test]
    fn guide_table_pick_equals_partition_point_v6(
        raw in proptest::collection::vec((any::<u128>(), any::<u8>()), 1..40),
        seed in any::<u64>(),
    ) {
        // every width from /0 (a saturating space) to /128, so the
        // u128 bucket division and huge buckets are exercised
        let prefixes: Vec<Prefix<V6>> = raw
            .iter()
            .map(|&(addr, len)| Prefix::<V6>::new_truncate(addr, len % 129).expect("len ≤ 128"))
            .collect();
        check_locate::<V6>(&prefixes, &mut SmallRng::seed_from_u64(seed), 200);
    }

    #[test]
    fn guide_table_pick_on_a_single_prefix_and_a_space_below_k(
        addr in any::<u32>(),
        len in 0u8..=32,
        hosts in 1usize..50,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // a single prefix: every offset maps to it
        check_locate::<V4>(&[Prefix::new_truncate(addr, len).unwrap()], &mut rng, 100);
        // /32s only: the space (one address a prefix) is smaller than
        // the two-per-prefix bucket count K, which must not divide by 0
        let singles: Vec<Prefix> = (0..hosts as u32)
            .map(|i| Prefix::host(addr.wrapping_add(i.wrapping_mul(7919))))
            .collect();
        check_locate::<V4>(&singles, &mut rng, 100);
    }

    #[test]
    fn fresh_sample_stream_equals_the_binary_search_draw(
        raw in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..12),
        per_cycle in 0u64..800,
        seed in any::<u64>(),
        cycle in 0u32..5,
    ) {
        // the drawn sequence, in order, is the one the old
        // binary-search pick produced from the same RNG
        let announced = disjoint_prefixes(&raw);
        prop_assume!(!announced.is_empty());
        let starts: Vec<u128> = announced
            .iter()
            .scan(0u128, |acc, p| {
                let s = *acc;
                *acc += p.size_u128();
                Some(s)
            })
            .collect();
        let total: u128 = announced.iter().map(|p| p.size_u128()).sum();
        let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(cycle) << 32));
        let want: Vec<u32> = (0..per_cycle)
            .map(|_| {
                let (j, within) = reference_pick(&starts, rng.random_range(0..total));
                announced[j].first() + within as u32
            })
            .collect();
        let plan = ProbePlan::FreshSample { per_cycle, seed };
        let got: Vec<u32> = plan.stream(cycle, &announced, 0).collect();
        prop_assert_eq!(got, want);
    }
}
