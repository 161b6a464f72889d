//! Host populations: who runs which service where.
//!
//! The paper's ground truth is "the set of addresses that complete a
//! protocol handshake". This module seeds that population over the
//! topology: every block draws a **density** ρ from a class- and
//! protocol-specific heavy-tailed mixture (or is empty), then materialises
//! `ρ · |block|` hosts at uniform-random addresses inside the block.
//!
//! The mixture parameters are the model's analogue of the paper's Figure 4
//! measurements: a sharp density fall-off across prefixes with a long
//! sparse tail, per-protocol zero-shares that leave 20–25 % of announced
//! space unresponsive (FTP, l-view), and CWMP concentrated in residential
//! space.

use crate::churn::ChurnTable;
use crate::distr::{coin, BoundedPareto};
use crate::protocol::Protocol;
use crate::snapshot::HostSet;
use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::HashSet;
use tass_bgp::AsClass;

/// Density mixture for one (class, protocol) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DensityParams {
    /// Probability that a whole l-prefix (an operator) runs none of this
    /// service anywhere — e.g. a residential ISP that does not manage its
    /// CPE via TR-069. This root-level gate is what concentrates CWMP
    /// into part of the space in the paper's Table 1.
    pub p_zero_root: f64,
    /// Probability that a block hosts no such service at all.
    pub p_zero: f64,
    /// Pareto tail exponent of the nonzero densities.
    pub alpha: f64,
    /// Lower density bound.
    pub rho_lo: f64,
    /// Upper density bound.
    pub rho_hi: f64,
}

impl DensityParams {
    /// A parameter set that never produces hosts.
    pub const NONE: DensityParams = DensityParams {
        p_zero_root: 1.0,
        p_zero: 1.0,
        alpha: 1.0,
        rho_lo: 1e-9,
        rho_hi: 1e-9,
    };
}

/// Default density parameters.
///
/// Densities are expressed at **model scale**: the simulated universe
/// carries ~20–50× fewer hosts than the 2015 Internet, so absolute ρ values
/// are proportionally lower than the paper's (which reports e.g. ρ > 0.04
/// for the densest 20 K FTP prefixes). All of the paper's evaluation
/// quantities are ratios, which scale out. The `calibration` exhibit
/// (`repro calibration`) prints the resulting host counts next to the
/// paper's dataset statistics.
pub fn default_density(class: AsClass, proto: Protocol) -> DensityParams {
    use AsClass::*;
    use Protocol::*;
    let (p_zero_root, p_zero, alpha, rho_lo, rho_hi) = match (class, proto) {
        // Hosting: dense, service-rich; almost no CPE management exposure.
        (Hosting, Ftp) => (0.02, 0.35, 0.80, 5e-5, 3.0e-2),
        (Hosting, Http) => (0.01, 0.22, 0.85, 1e-4, 5.0e-2),
        (Hosting, Https) => (0.01, 0.25, 0.85, 1e-4, 4.5e-2),
        (Hosting, Cwmp) => (0.90, 0.95, 1.5, 1e-5, 1e-4),
        // Residential: services sparse but widespread; CWMP lives here,
        // concentrated in the subset of ISPs that manage CPE via TR-069.
        (Residential, Ftp) => (0.03, 0.35, 1.05, 3e-6, 2.5e-3),
        (Residential, Http) => (0.02, 0.28, 1.00, 8e-6, 4.0e-3),
        (Residential, Https) => (0.02, 0.30, 1.00, 8e-6, 3.5e-3),
        (Residential, Cwmp) => (0.28, 0.50, 0.45, 4e-6, 4.0e-2),
        // Enterprise: high zero-share, thin tail.
        (Enterprise, Ftp) => (0.08, 0.55, 1.00, 2e-5, 4e-3),
        (Enterprise, Http) => (0.05, 0.45, 0.95, 4e-5, 6e-3),
        (Enterprise, Https) => (0.06, 0.47, 0.95, 4e-5, 5e-3),
        (Enterprise, Cwmp) => (0.70, 0.97, 1.5, 1e-5, 2e-4),
        // Academic: moderate, stable.
        (Academic, Ftp) => (0.05, 0.30, 0.95, 5e-5, 3e-3),
        (Academic, Http) => (0.04, 0.24, 0.95, 8e-5, 4e-3),
        (Academic, Https) => (0.05, 0.26, 0.95, 8e-5, 4e-3),
        (Academic, Cwmp) => (0.90, 0.99, 1.5, 1e-5, 1e-4),
        // Mobile: carrier NAT hides almost everything.
        (Mobile, Ftp) => (0.45, 0.95, 1.5, 5e-6, 1e-4),
        (Mobile, Http) => (0.30, 0.80, 1.4, 1e-5, 2e-4),
        (Mobile, Https) => (0.32, 0.82, 1.4, 1e-5, 2e-4),
        (Mobile, Cwmp) => (0.50, 0.90, 0.70, 1e-5, 1e-3),
        // Infrastructure: small blocks, mostly empty.
        (Infrastructure, Ftp) => (0.20, 0.70, 1.00, 5e-5, 3e-3),
        (Infrastructure, Http) => (0.25, 0.60, 0.95, 8e-5, 5e-3),
        (Infrastructure, Https) => (0.27, 0.62, 0.95, 8e-5, 5e-3),
        (Infrastructure, Cwmp) => (0.90, 0.99, 1.5, 1e-5, 1e-4),
    };
    DensityParams {
        p_zero_root,
        p_zero,
        alpha,
        rho_lo,
        rho_hi,
    }
}

/// A table of density parameters with override support.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DensityTable {
    overrides: BTreeMap<(AsClass, Protocol), DensityParams>,
}

impl DensityTable {
    /// The default table (no overrides).
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the parameters for one (class, protocol) pair.
    pub fn set(&mut self, class: AsClass, proto: Protocol, params: DensityParams) -> &mut Self {
        self.overrides.insert((class, proto), params);
        self
    }

    /// Parameters for a (class, protocol) pair.
    pub fn get(&self, class: AsClass, proto: Protocol) -> DensityParams {
        self.overrides
            .get(&(class, proto))
            .copied()
            .unwrap_or_else(|| default_density(class, proto))
    }
}

/// One live host: its current address, the block it resides in, and whether
/// it sits on a dynamically assigned address (churns fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRecord {
    /// Current IPv4 address.
    pub addr: u32,
    /// Index of the block (more-specific partition) hosting it.
    pub block: u32,
    /// Dynamic addressing flag (set at birth from the block's class).
    pub dynamic: bool,
}

/// The complete population of one protocol at one instant.
#[derive(Debug, Clone)]
pub struct Population {
    /// Which protocol these hosts speak.
    pub protocol: Protocol,
    /// All live hosts.
    pub hosts: Vec<HostRecord>,
}

/// Draw a uniform random address inside a block.
pub(crate) fn random_addr_in(rng: &mut SmallRng, prefix: tass_net::Prefix) -> u32 {
    let size = prefix.size();
    let off = rng.random_range(0..size);
    (u64::from(prefix.first()) + off) as u32
}

/// Draw a uniform random IPv6 address inside a prefix. Prefix sizes are
/// powers of two, so masking 128 random bits is exact and rejection-free.
pub fn random_v6_addr_in(rng: &mut SmallRng, prefix: tass_net::Prefix<tass_net::V6>) -> u128 {
    let host_mask = if prefix.len() == 0 {
        u128::MAX
    } else {
        (1u128 << (128 - prefix.len())) - 1
    };
    prefix.first() | (rng.random::<u128>() & host_mask)
}

/// Seed `count` distinct IPv6 hosts uniformly inside a dense block —
/// the v6 analogue of a block's `ρ · |block|` materialisation. The v6
/// population model has no per-address-class mixture (there is no
/// per-/24 census to calibrate one against); density structure lives in
/// *which blocks exist*, which is exactly the paper's point transplanted
/// to v6: responsive space is vanishingly sparse and heavily clustered.
pub fn seed_v6_block_hosts(
    rng: &mut SmallRng,
    block: tass_net::Prefix<tass_net::V6>,
    count: usize,
) -> Vec<u128> {
    let cap = usize::try_from(block.size_u128() / 2).unwrap_or(usize::MAX);
    let count = count.min(cap);
    let mut used: HashSet<u128> = HashSet::with_capacity(count);
    while used.len() < count {
        used.insert(random_v6_addr_in(rng, block));
    }
    // deterministic order for downstream RNG stability
    let mut addrs: Vec<u128> = used.into_iter().collect();
    addrs.sort_unstable();
    addrs
}

impl Population {
    /// Seed the initial population over a topology.
    ///
    /// `host_scale` multiplies every density (1.0 = default scale); the
    /// `churn` table supplies each class's dynamic-address share.
    pub fn seed(
        topo: &Topology,
        protocol: Protocol,
        density: &DensityTable,
        churn: &ChurnTable,
        host_scale: f64,
        rng: &mut SmallRng,
    ) -> Population {
        let mut hosts = Vec::new();
        // Root-level gates: whether each operator (l-prefix) runs this
        // protocol at all. Gated on the *root's* class so an entire
        // residential ISP can be CWMP-free, which concentrates protocols
        // into part of the space as in the paper's Table 1.
        let root_gate: Vec<bool> = (0..topo.num_roots())
            .map(|ri| {
                let root_prefix = topo.l_view.unit(ri as u32).prefix;
                let class = topo
                    .synth
                    .class_of_prefix(root_prefix)
                    .unwrap_or(tass_bgp::AsClass::Infrastructure);
                coin(rng, density.get(class, protocol).p_zero_root)
            })
            .collect();
        for (bi, block) in topo.blocks().iter().enumerate() {
            if root_gate[block.root_idx as usize] {
                continue;
            }
            let params = density.get(block.class, protocol);
            if coin(rng, params.p_zero) {
                continue;
            }
            let rho = BoundedPareto::new(params.rho_lo, params.rho_hi, params.alpha).sample(rng)
                * host_scale;
            let size = block.prefix.size();
            let expect = rho * size as f64;
            let mut count = expect.floor() as u64;
            if coin(rng, expect.fract()) {
                count += 1;
            }
            // never exceed half the block (keeps distinct-address sampling
            // cheap; realistic densities are far below this)
            let count = count.min(size / 2).min(1 << 22) as usize;
            if count == 0 {
                continue;
            }
            let dynamic_prob = churn.get(block.class).dynamic_host_prob;
            let mut used: HashSet<u32> = HashSet::with_capacity(count);
            while used.len() < count {
                used.insert(random_addr_in(rng, block.prefix));
            }
            // HashSet iteration order is nondeterministic; sort so that the
            // dynamic-flag draws below consume the RNG in a stable order.
            let mut addrs: Vec<u32> = used.into_iter().collect();
            addrs.sort_unstable();
            for addr in addrs {
                hosts.push(HostRecord {
                    addr,
                    block: bi as u32,
                    dynamic: coin(rng, dynamic_prob),
                });
            }
        }
        Population { protocol, hosts }
    }

    /// Number of live hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Is the population empty?
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The responsive-address set (deduplicated: two hosts on one address
    /// answer as one).
    pub fn host_set(&self) -> HostSet {
        self.hosts.iter().map(|h| h.addr).collect()
    }

    /// Hosts per block, aligned with `topo.blocks()`.
    pub fn count_per_block(&self, num_blocks: usize) -> Vec<u32> {
        let mut counts = vec![0u32; num_blocks];
        for h in &self.hosts {
            counts[h.block as usize] += 1;
        }
        counts
    }

    /// Live-host count per behavioural class.
    pub fn count_per_class(&self, topo: &Topology) -> BTreeMap<AsClass, usize> {
        let mut out = BTreeMap::new();
        for h in &self.hosts {
            *out.entry(topo.blocks()[h.block as usize].class)
                .or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnTable;
    use rand::SeedableRng;
    use tass_bgp::synth::{generate, SynthConfig};

    fn topo(n: usize) -> Topology {
        Topology::build(generate(&SynthConfig {
            seed: 77,
            l_prefix_count: n,
            ..Default::default()
        }))
    }

    fn seed_pop(topo: &Topology, proto: Protocol, scale: f64, seed: u64) -> Population {
        let mut rng = SmallRng::seed_from_u64(seed);
        Population::seed(
            topo,
            proto,
            &DensityTable::new(),
            &ChurnTable::new(),
            scale,
            &mut rng,
        )
    }

    #[test]
    fn seeding_is_deterministic() {
        let t = topo(400);
        let a = seed_pop(&t, Protocol::Http, 1.0, 9);
        let b = seed_pop(&t, Protocol::Http, 1.0, 9);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.host_set(), b.host_set());
    }

    #[test]
    fn hosts_live_inside_their_blocks() {
        let t = topo(400);
        let p = seed_pop(&t, Protocol::Ftp, 1.0, 1);
        assert!(!p.is_empty(), "default scale should produce FTP hosts");
        for h in &p.hosts {
            let b = &t.blocks()[h.block as usize];
            assert!(
                b.prefix.contains_addr(h.addr),
                "{} outside {}",
                h.addr,
                b.prefix
            );
        }
    }

    #[test]
    fn host_scale_scales_population() {
        let t = topo(400);
        let small = seed_pop(&t, Protocol::Http, 0.5, 2).len() as f64;
        let big = seed_pop(&t, Protocol::Http, 2.0, 2).len() as f64;
        assert!(big > small * 2.0, "scale 2.0 ({big}) vs 0.5 ({small})");
    }

    #[test]
    fn cwmp_concentrates_in_residential() {
        let t = topo(600);
        let p = seed_pop(&t, Protocol::Cwmp, 1.0, 3);
        let by_class = p.count_per_class(&t);
        let res = *by_class.get(&AsClass::Residential).unwrap_or(&0);
        let total: usize = by_class.values().sum();
        assert!(total > 0);
        assert!(
            res as f64 / total as f64 > 0.8,
            "CWMP residential share {} of {total}",
            res
        );
    }

    #[test]
    fn http_spread_across_classes() {
        let t = topo(600);
        let p = seed_pop(&t, Protocol::Http, 1.0, 4);
        let by_class = p.count_per_class(&t);
        assert!(by_class.get(&AsClass::Hosting).copied().unwrap_or(0) > 0);
        assert!(by_class.get(&AsClass::Residential).copied().unwrap_or(0) > 0);
        assert!(by_class.get(&AsClass::Enterprise).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn count_per_block_sums_to_len() {
        let t = topo(300);
        let p = seed_pop(&t, Protocol::Https, 1.0, 5);
        let counts = p.count_per_block(t.num_blocks());
        let sum: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(sum as usize, p.len());
    }

    #[test]
    fn zero_table_produces_empty_population() {
        let t = topo(200);
        let mut d = DensityTable::new();
        for c in AsClass::ALL {
            for pr in Protocol::ALL {
                d.set(c, pr, DensityParams::NONE);
            }
        }
        let mut rng = SmallRng::seed_from_u64(0);
        let p = Population::seed(&t, Protocol::Ftp, &d, &ChurnTable::new(), 1.0, &mut rng);
        assert!(p.is_empty());
        assert_eq!(p.host_set().len(), 0);
    }

    #[test]
    fn density_table_overrides() {
        let mut d = DensityTable::new();
        let custom = DensityParams {
            p_zero_root: 0.0,
            p_zero: 0.0,
            alpha: 2.0,
            rho_lo: 1e-3,
            rho_hi: 1e-2,
        };
        d.set(AsClass::Hosting, Protocol::Ftp, custom);
        assert_eq!(d.get(AsClass::Hosting, Protocol::Ftp), custom);
        // untouched pair falls through to defaults
        assert_eq!(
            d.get(AsClass::Hosting, Protocol::Http),
            default_density(AsClass::Hosting, Protocol::Http)
        );
    }

    #[test]
    fn residential_dynamic_share_high() {
        let t = topo(600);
        let p = seed_pop(&t, Protocol::Cwmp, 1.0, 6);
        let res_hosts: Vec<_> = p
            .hosts
            .iter()
            .filter(|h| t.blocks()[h.block as usize].class == AsClass::Residential)
            .collect();
        assert!(res_hosts.len() > 50);
        let dynamic = res_hosts.iter().filter(|h| h.dynamic).count();
        let share = dynamic as f64 / res_hosts.len() as f64;
        assert!(share > 0.3, "residential dynamic share {share}");
    }
}
