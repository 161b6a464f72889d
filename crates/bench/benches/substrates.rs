//! Microbenches for the hot substrate paths: the trie, deaggregation, the
//! cyclic permutation, SipHash, set algebra, and the host-set merge that
//! dominates strategy evaluation. (The wire codec's rows live in the
//! `engine` bench, next to the probe path that uses it.)
//!
//! Each row is the median time per sample with its quartiles (see the
//! `tass_bench` docs) and, where a sample handles many elements, the
//! element rate. Rows are printed, not written to a file.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use tass_bench::{reps, time, Report, Row, Timing};
use tass_model::HostSet;
use tass_net::{deagg, Cyclic, Prefix, PrefixSet, PrefixTrie};
use tass_scan::siphash::SipHash24;

/// Print one row: `group/name`, the time per sample, and the rate of
/// `elements` handled per sample.
fn row(report: &mut Report, group: &str, name: &str, elements: u64, t: Timing) {
    report.row(
        Row::new(group)
            .set("name", name)
            .set("elements", elements)
            .time("us", &t, 1e6, 3)
            .rate("elems_per_sec", &t, elements as f64, 0),
    );
}

fn random_prefixes(n: usize, seed: u64) -> Vec<Prefix> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.random_range(8u8..=24);
            Prefix::new_truncate(rng.random::<u32>(), len).expect("len <= 32")
        })
        .collect()
}

fn bench_trie(report: &mut Report, reps: usize) {
    for n in [10_000usize, 100_000] {
        let prefixes = random_prefixes(n, 1);
        let trie: PrefixTrie<u32> = prefixes
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        let mut rng = SmallRng::seed_from_u64(2);
        let addrs: Vec<u32> = (0..10_000).map(|_| rng.random()).collect();
        let queries = addrs.len() as u64;
        let t = time(reps, || {
            let hits = addrs
                .iter()
                .filter(|&&a| trie.longest_match(black_box(a)).is_some());
            hits.count()
        });
        row(report, "trie", &format!("longest_match/{n}"), queries, t);
        let t = time(reps, || {
            let hits = addrs
                .iter()
                .filter(|&&a| trie.shortest_match(black_box(a)).is_some());
            hits.count()
        });
        row(report, "trie", &format!("shortest_match/{n}"), queries, t);
        let t = time(reps, || {
            let t: PrefixTrie<()> = prefixes.iter().map(|&p| (p, ())).collect();
            t.len()
        });
        row(report, "trie", &format!("build/{n}"), n as u64, t);
    }
}

fn bench_deagg(report: &mut Report, reps: usize) {
    let scen = tass_bench::scenario();
    let prefixes: Vec<Prefix> = scen.universe.topology().synth.table.prefixes().collect();
    let t = time(reps, || {
        deagg::deaggregate_table(prefixes.iter().copied()).len()
    });
    let name = format!("table_{}_entries", prefixes.len());
    row(report, "deaggregation", &name, prefixes.len() as u64, t);
    // the paper's Figure 2 case, isolated
    let root: Prefix = "100.0.0.0/8".parse().expect("static");
    let inner: Prefix = "100.0.0.0/24".parse().expect("static");
    let t = time(reps, || {
        deagg::partition_preserving(black_box(root), &[black_box(inner)]).len()
    });
    row(report, "deaggregation", "single_deep_split", 1, t);
}

fn bench_cyclic(report: &mut Report, reps: usize) {
    let mut rng = SmallRng::seed_from_u64(3);
    let cyc = Cyclic::ipv4(&mut rng);
    let t = time(reps, || {
        cyc.iter().take(1_000_000).fold(0u64, |acc, e| acc ^ e)
    });
    row(report, "cyclic", "ipv4_walk_1M", 1_000_000, t);
    let t = time(reps, || {
        let mut rng = SmallRng::seed_from_u64(rng.random());
        Cyclic::ipv4(&mut rng).generator()
    });
    row(report, "cyclic", "construct_random_generator", 1, t);
}

fn bench_siphash(report: &mut Report, reps: usize) {
    // one hash is too short for the clock: time a batch per sample
    const BATCH: u32 = 4096;
    let h = SipHash24::new(0xA, 0xB);
    let mut a = 0u32;
    let t = time(reps, || {
        for _ in 0..BATCH {
            a = a.wrapping_add(1);
            black_box(h.probe_validation(black_box(a)));
        }
    });
    row(report, "siphash", "probe_validation", u64::from(BATCH), t);
}

fn bench_prefix_set(report: &mut Report, reps: usize) {
    let prefixes = random_prefixes(10_000, 5);
    let n = prefixes.len() as u64;
    let t = time(reps, || {
        PrefixSet::from_prefixes(prefixes.iter().copied()).num_addrs()
    });
    row(report, "prefix_set", "from_prefixes_10k", n, t);
    let set = PrefixSet::from_prefixes(prefixes.iter().copied());
    let mut rng = SmallRng::seed_from_u64(6);
    let addrs: Vec<u32> = (0..10_000).map(|_| rng.random()).collect();
    let t = time(reps, || {
        addrs.iter().filter(|&&a| set.contains_addr(a)).count()
    });
    row(report, "prefix_set", "contains_10k_queries", n, t);
}

fn bench_host_set(report: &mut Report, reps: usize) {
    let mut rng = SmallRng::seed_from_u64(7);
    let a: HostSet = (0..500_000).map(|_| rng.random::<u32>()).collect();
    let b: HostSet = (0..500_000).map(|_| rng.random::<u32>()).collect();
    let t = time(reps, || a.intersection_count(black_box(&b)));
    row(report, "host_set", "intersection_500k", 500_000, t);
    let p: Prefix = "128.0.0.0/2".parse().expect("static");
    let t = time(reps, || a.count_in_prefix(black_box(p)));
    row(report, "host_set", "count_in_prefix", 1, t);
}

fn main() {
    let reps = reps(10, 3);
    let mut report = Report::new("substrates", None);
    bench_trie(&mut report, reps);
    bench_deagg(&mut report, reps);
    bench_cyclic(&mut report, reps);
    bench_siphash(&mut report, reps);
    bench_prefix_set(&mut report, reps);
    bench_host_set(&mut report, reps);
    report.finish();
}
