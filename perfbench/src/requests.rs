//! Seeded request mixes for the serve workloads, and the in-process
//! answers every response is checked against.

use std::collections::HashSet;

use faultline_core::{par_map_with, CrQuery, ParallelConfig};
use faultline_serve::handlers;
use faultline_serve::http::{parse_request, Parsed};
use faultline_serve::router::{route, Route, Routed};

use crate::client::wire;
use crate::loadgen::{fnv1a, Request};

/// The `/healthz` body the server answers with.
pub const HEALTHZ_BODY: &[u8] = b"{\"status\": \"ok\"}\n";

/// The scenario presets of the serve-hot mix.
const PRESETS: [&str; 6] =
    ["smoke", "two-group", "proportional", "explicit-faults", "byzantine", "p-faulty"];

/// Proportional-regime pairs small enough for a tiny-budget optimize.
const OPTIMIZE_PAIRS: [(usize, usize); 4] = [(3, 1), (4, 2), (5, 2), (5, 3)];

/// SplitMix64: the bench's only randomness, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi / lo).ln()).exp()
    }
}

/// Builds a request, routing it the way the server will.
#[must_use]
pub fn request(method: &str, path: &str, body: &str) -> Request {
    let bare = path.split('?').next().unwrap_or(path);
    let Routed::Matched(route) = route(method, bare) else {
        panic!("the mixes only target known routes, got {method} {bare}")
    };
    Request { route, wire: wire(method, path, body) }
}

/// One request of the serve-hot mix: 60% `/v1/cr` on the memo lattice,
/// 20% scenario presets, 10% `/v1/table1`, 10% `/healthz`.
pub fn hot_request(rng: &mut Rng) -> Request {
    match rng.below(10) {
        0..=5 => {
            let n = rng.below(16) + 1;
            let f = rng.below(n);
            request("GET", &format!("/v1/cr?n={n}&f={f}"), "")
        }
        6 | 7 => {
            let name = PRESETS[rng.below(PRESETS.len())];
            request("POST", "/v1/scenario", &format!("{{\"name\": \"{name}\"}}"))
        }
        8 => request("GET", "/v1/table1", ""),
        _ => request("GET", "/healthz", ""),
    }
}

/// Every LRU-served request of the hot mix, for warm-up.
#[must_use]
pub fn hot_warmup() -> Vec<Request> {
    let mut list: Vec<Request> = PRESETS
        .iter()
        .map(|name| request("POST", "/v1/scenario", &format!("{{\"name\": \"{name}\"}}")))
        .collect();
    list.push(request("GET", "/v1/table1", ""));
    list
}

fn signed(rng: &mut Rng, magnitude: f64, positive_only: bool) -> f64 {
    if positive_only || rng.below(2) == 0 {
        magnitude
    } else {
        -magnitude
    }
}

fn list(values: &[String]) -> String {
    format!("[{}]", values.join(", "))
}

fn supremum_body(rng: &mut Rng) -> String {
    let n = 2 + rng.below(63);
    let f = 1 + rng.below(n - 1);
    let xmax = rng.log_uniform(16.0, 1000.0);
    format!("{{\"n\": {n}, \"f\": {f}, \"xmax\": {xmax:?}}}")
}

/// A v1 `ScenarioDoc` with per-robot speeds, activation delays and
/// fault onsets.
fn v1_scenario_body(rng: &mut Rng) -> String {
    let n = 2 + rng.below(5);
    let f = 1 + rng.below(n - 1);
    let half_line = rng.below(5) == 0;
    let targets: Vec<String> = (0..1 + rng.below(3))
        .map(|_| {
            let m = rng.log_uniform(1.5, 40.0);
            format!("{:?}", signed(rng, m, half_line))
        })
        .collect();
    let mut faulty = vec![false; n];
    let with_plan = rng.below(2) == 0;
    if with_plan {
        let mut placed = 0;
        while placed < f {
            let i = rng.below(n);
            if !faulty[i] {
                faulty[i] = true;
                placed += 1;
            }
        }
    }
    let mut seeded = false;
    let robots: Vec<String> = (0..n)
        .map(|i| {
            let mut fields = Vec::new();
            if rng.below(2) == 0 {
                fields.push(format!("\"speed\": {:?}", 0.5 + 1.5 * rng.unit()));
            }
            match rng.below(3) {
                0 => {}
                1 => fields
                    .push(format!("\"activation\": {{\"DelayedStart\": {:?}}}", 3.0 * rng.unit())),
                _ => {
                    seeded = true;
                    fields.push(format!(
                        "\"activation\": {{\"Seeded\": {{\"max_delay\": {:?}}}}}",
                        0.5 + 2.0 * rng.unit()
                    ));
                }
            }
            if faulty[i] && rng.below(2) == 0 {
                fields.push(format!("\"fault_onset\": {:?}", 5.0 * rng.unit()));
            }
            format!("{{{}}}", fields.join(", "))
        })
        .collect();
    let mut body = format!("{{\"version\": 1, \"n\": {n}, \"f\": {f}");
    if half_line {
        body.push_str(", \"geometry\": \"HalfLine\"");
    }
    body.push_str(&format!(", \"targets\": {}", list(&targets)));
    if with_plan {
        let plan: Vec<String> = faulty
            .iter()
            .map(|&bad| if bad { "\"Sensor\"".to_owned() } else { "\"Reliable\"".to_owned() })
            .collect();
        body.push_str(&format!(", \"fault_plan\": {}", list(&plan)));
    }
    if seeded {
        body.push_str(&format!(", \"seed\": {}", rng.below(1 << 20)));
    }
    body.push_str(&format!(", \"robots\": {}}}", list(&robots)));
    body
}

/// A legacy (unversioned) scenario: plain, randomized-sweep with a
/// seed, or with explicit faulty robots.
fn legacy_scenario_body(rng: &mut Rng) -> String {
    let n = 2 + rng.below(7);
    let f = 1 + rng.below(n - 1);
    let targets: Vec<String> = (0..1 + rng.below(4))
        .map(|_| {
            let m = rng.log_uniform(1.2, 60.0);
            format!("{:?}", signed(rng, m, false))
        })
        .collect();
    let mut body = format!("{{\"n\": {n}, \"f\": {f}, \"targets\": {}", list(&targets));
    match rng.below(3) {
        0 => {}
        1 => body.push_str(&format!(
            ", \"strategy\": \"randomized-sweep\", \"seed\": {}",
            rng.below(1 << 20)
        )),
        _ => {
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < f {
                let i = rng.below(n);
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            let picked: Vec<String> = picked.iter().map(usize::to_string).collect();
            body.push_str(&format!(", \"faulty\": {}", list(&picked)));
        }
    }
    body.push('}');
    body
}

/// Requests per coalescing pair in a serve-cold list.
const TWIN_EVERY: usize = 40;

/// A tiny-budget optimize on the `index`-th pair (round robin, so every
/// list has the same share of each pair's cost).
fn optimize_body(rng: &mut Rng, index: usize) -> String {
    let (n, f) = OPTIMIZE_PAIRS[index % OPTIMIZE_PAIRS.len()];
    let seed = rng.below(1 << 20);
    let xmax = 6.0 + 6.0 * rng.unit();
    format!(
        "{{\"n\": {n}, \"f\": {f}, \"budget\": \"tiny\", \"seed\": {seed}, \"xmax\": {xmax:?}}}"
    )
}

/// The kinds of the serve-cold mix, in a twenty-slot cycle the seed
/// shuffles: 11 supremum (55%), 4 v1 scenario documents (20%), 4
/// legacy scenarios (20%), 1 tiny-budget optimize (5%). Fixed shares
/// keep one seed's mix from drifting away from another's.
const COLD_CYCLE: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3];

fn cold_candidate(rng: &mut Rng, kind: u8, optimizes: usize) -> Request {
    match kind {
        0 => request("POST", "/v1/supremum", &supremum_body(rng)),
        1 => request("POST", "/v1/scenario", &v1_scenario_body(rng)),
        2 => request("POST", "/v1/scenario", &legacy_scenario_body(rng)),
        _ => request("POST", "/v1/optimize", &optimize_body(rng, optimizes)),
    }
}

/// Whether the service accepts the request (resolves it without a 400).
fn resolves(request: &Request) -> bool {
    let Parsed::Ready { request: parsed, .. } = parse_request(&request.wire) else { return false };
    handlers::prepare(request.route, &parsed).is_ok()
}

/// `count` serve-cold requests with pairwise distinct cache keys, except
/// that one slot in [`TWIN_EVERY`] is a pair: the same tiny optimize twice,
/// to be sent together so the second joins the first's flight. Keys in
/// `seen` are never reused.
pub fn cold_requests(
    rng: &mut Rng,
    count: usize,
    seen: &mut HashSet<u64>,
) -> (Vec<Request>, Vec<Option<usize>>) {
    let mut requests = Vec::with_capacity(count);
    let mut pair = Vec::with_capacity(count);
    let mut pairs = 0;
    let mut cycle = COLD_CYCLE;
    let mut slot = cycle.len();
    let mut optimizes = 0;
    // Pairs sit at fixed spacing from a seeded offset: their optimizes
    // are the costliest requests, so a drawn pair count would make one
    // seed's list much heavier than another's.
    let phase = rng.below(TWIN_EVERY);
    while requests.len() < count {
        if slot == cycle.len() {
            // Fisher-Yates: the seed orders each cycle.
            for i in (1..cycle.len()).rev() {
                cycle.swap(i, rng.below(i + 1));
            }
            slot = 0;
        }
        let twin = requests.len() % TWIN_EVERY == phase && requests.len() + 2 <= count;
        let candidate = if twin {
            request("POST", "/v1/optimize", &optimize_body(rng, optimizes))
        } else {
            cold_candidate(rng, cycle[slot], optimizes)
        };
        if !resolves(&candidate) || !seen.insert(fnv1a(&candidate.wire)) {
            continue;
        }
        if candidate.route == Route::Optimize {
            optimizes += 1;
        }
        if twin {
            requests.push(candidate.clone());
            pair.push(Some(pairs));
            pair.push(Some(pairs));
            pairs += 1;
        } else {
            pair.push(None);
            slot += 1;
        }
        requests.push(candidate);
    }
    (requests, pair)
}

/// The body the service must answer `request` with, computed in process
/// through the same handlers: `cr_body` for the memo lattice, `prepare`
/// and its compute closure for everything else.
///
/// # Errors
///
/// The handler's error when the request does not compute.
pub fn expected_body(request: &Request) -> Result<Vec<u8>, String> {
    let Parsed::Ready { request: parsed, .. } = parse_request(&request.wire) else {
        return Err("request does not parse".to_owned());
    };
    match request.route {
        Route::Healthz => Ok(HEALTHZ_BODY.to_vec()),
        Route::Cr => {
            let param = |k: &str| parsed.query_param(k).and_then(|v| v.parse().ok());
            let (Some(n), Some(f)) = (param("n"), param("f")) else {
                return Err("cr request without n and f".to_owned());
            };
            handlers::cr_body(&CrQuery { n, f }).map_err(|e| e.to_string())
        }
        other => {
            let prepared = handlers::prepare(other, &parsed).map_err(|e| e.to_string())?;
            (prepared.compute)().map_err(|e| e.to_string())
        }
    }
}

/// Expected body digests of `requests`, computed on every core (this
/// runs between phases, while the server is idle).
///
/// # Errors
///
/// The first request that does not compute.
pub fn expected_digests(requests: &[Request]) -> Result<Vec<u64>, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let config = ParallelConfig { threads: Some(threads), grain: None };
    par_map_with(requests, &config, |r| expected_body(r).map(|b| fnv1a(&b))).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_a_function_of_the_seed() {
        let a: Vec<Vec<u8>> =
            (0..50).scan(Rng::new(7, 1), |r, _| Some(hot_request(r).wire)).collect();
        let b: Vec<Vec<u8>> =
            (0..50).scan(Rng::new(7, 1), |r, _| Some(hot_request(r).wire)).collect();
        let c: Vec<Vec<u8>> =
            (0..50).scan(Rng::new(8, 1), |r, _| Some(hot_request(r).wire)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cold_keys_are_distinct_except_pairs() {
        let mut seen = HashSet::new();
        let (requests, pair) = cold_requests(&mut Rng::new(3, 2), 400, &mut seen);
        assert_eq!(requests.len(), 400);
        let mut keys = HashSet::new();
        for (i, r) in requests.iter().enumerate() {
            let fresh = keys.insert(r.wire.clone());
            let second_of_pair = i > 0 && pair[i].is_some() && pair[i] == pair[i - 1];
            assert_eq!(fresh, !second_of_pair, "request {i}");
        }
        assert!(pair.iter().flatten().count() >= 2, "at least one pair in 400");
        let (more, _) = cold_requests(&mut Rng::new(3, 3), 100, &mut seen);
        assert!(more.iter().all(|r| !keys.contains(&r.wire)), "phases never share keys");
    }
}
