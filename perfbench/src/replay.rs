//! The serve request path replayed in process, without sockets: the
//! same seeded requests go through the public functions the event loop
//! calls — `http::parse_request`, `router::route`, the memo tier,
//! `handlers::prepare`, `ResponseCache::get`, the compute closure,
//! `ResponseCache::insert` and `http::response_bytes` — each timed.

use std::sync::Arc;
use std::time::Instant;

use faultline_serve::handlers;
use faultline_serve::http::{parse_request, response_bytes, Parsed};
use faultline_serve::memo::CrMemo;
use faultline_serve::router::{route, Route, Routed};
use faultline_serve::{ResponseCache, ServeConfig};

use crate::loadgen::Request;
use crate::requests::HEALTHZ_BODY;
use crate::server::Flags;

/// The timed layers, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `http::parse_request`.
    Parse,
    /// `router::route`.
    Route,
    /// `/v1/cr` parameter read plus `CrMemo::get`.
    Memo,
    /// `handlers::prepare`: resolve plus canonical key.
    Prepare,
    /// `ResponseCache::get`.
    CacheGet,
    /// `ResponseCache::insert`.
    CacheInsert,
    /// `http::response_bytes`.
    Encode,
    /// The compute closure, by route.
    Compute(Route),
}

/// Slots: seven fixed layers, then one compute slot per route.
const SLOTS: usize = 7 + 5;

impl Layer {
    fn slot(self) -> usize {
        match self {
            Layer::Parse => 0,
            Layer::Route => 1,
            Layer::Memo => 2,
            Layer::Prepare => 3,
            Layer::CacheGet => 4,
            Layer::CacheInsert => 5,
            Layer::Encode => 6,
            Layer::Compute(Route::Supremum) => 7,
            Layer::Compute(Route::Scenario) => 8,
            Layer::Compute(Route::Optimize) => 9,
            Layer::Compute(Route::Table1) => 10,
            Layer::Compute(_) => 11,
        }
    }
}

/// What one replay pass measured and counted.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Wall time of the measured requests, seconds.
    pub wall_s: f64,
    /// Seconds spent per layer slot.
    totals: [f64; SLOTS],
    /// Calls per layer slot.
    calls: [u64; SLOTS],
    /// Requests measured.
    pub requests: u64,
    /// Response bytes produced.
    pub bytes_out: u64,
    /// Memo hits, cache hits, cache misses, cache insertions.
    pub counts: [u64; 4],
}

impl Replay {
    /// Mean seconds per call of a layer (0 when never called).
    #[must_use]
    pub fn mean_s(&self, layer: Layer) -> f64 {
        let slot = layer.slot();
        if self.calls[slot] == 0 {
            0.0
        } else {
            self.totals[slot] / self.calls[slot] as f64
        }
    }

    /// Seconds in every timed layer together.
    #[must_use]
    pub fn layered_s(&self) -> f64 {
        self.totals.iter().sum()
    }

    /// The exact work counts, for comparison between passes.
    #[must_use]
    pub fn work(&self) -> (u64, u64, [u64; 4]) {
        (self.requests, self.bytes_out, self.counts)
    }
}

/// Times layers when on; an off clock does nothing, so the untimed
/// pass measures the overhead the timing adds.
struct Clock {
    on: bool,
    last: Instant,
}

impl Clock {
    fn lap(&mut self, replay: &mut Replay, layer: Layer) {
        if self.on {
            let now = Instant::now();
            replay.totals[layer.slot()] += (now - self.last).as_secs_f64();
            replay.calls[layer.slot()] += 1;
            self.last = now;
        }
    }
}

/// Replays `warmup` unmeasured, then `requests` measured, against a
/// memo and cache configured like the server.
///
/// # Errors
///
/// A request that does not parse, route, resolve or compute.
pub fn replay(
    warmup: &[Request],
    requests: &[Request],
    flags: &Flags,
    timed: bool,
) -> Result<Replay, String> {
    let memo = CrMemo::build(flags.memo_max_n);
    let cache = ResponseCache::new(flags.cache_bytes, ServeConfig::default().cache_shards);
    let mut out = Replay::default();
    let mut memo_hits = 0u64;
    for r in warmup {
        one(
            r,
            &memo,
            &cache,
            &mut Clock { on: false, last: Instant::now() },
            &mut Replay::default(),
            &mut memo_hits,
        )?;
    }
    let mut clock = Clock { on: timed, last: Instant::now() };
    let start = Instant::now();
    for r in requests {
        clock.last = Instant::now();
        one(r, &memo, &cache, &mut clock, &mut out, &mut memo_hits)?;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.requests = requests.len() as u64;
    out.counts = [memo_hits, cache.hits(), cache.misses(), cache.insertions()];
    Ok(out)
}

fn one(
    r: &Request,
    memo: &CrMemo,
    cache: &ResponseCache,
    clock: &mut Clock,
    out: &mut Replay,
    memo_hits: &mut u64,
) -> Result<(), String> {
    let Parsed::Ready { request, .. } = parse_request(&r.wire) else {
        return Err("replayed request does not parse".to_owned());
    };
    clock.lap(out, Layer::Parse);
    let Routed::Matched(matched) = route(&request.method, &request.path) else {
        return Err(format!("replayed request does not route: {}", request.path));
    };
    clock.lap(out, Layer::Route);
    let (tier, body): (Option<&str>, Arc<[u8]>) = if matched == Route::Healthz {
        (None, Arc::from(HEALTHZ_BODY))
    } else {
        let memoized = if matched == Route::Cr {
            let param = |k: &str| request.query_param(k).and_then(|v| v.parse::<usize>().ok());
            let hit = param("n").zip(param("f")).and_then(|(n, f)| memo.get(n, f));
            clock.lap(out, Layer::Memo);
            hit
        } else {
            None
        };
        if let Some(body) = memoized {
            *memo_hits += 1;
            (Some("memo"), body)
        } else {
            let prepared = handlers::prepare(matched, &request).map_err(|e| e.to_string())?;
            clock.lap(out, Layer::Prepare);
            let cached = cache.get(&prepared.cache_key);
            clock.lap(out, Layer::CacheGet);
            if let Some(body) = cached {
                (Some("hit"), body)
            } else {
                let body: Arc<[u8]> = Arc::from((prepared.compute)().map_err(|e| e.to_string())?);
                clock.lap(out, Layer::Compute(matched));
                cache.insert(prepared.cache_key, Arc::clone(&body));
                clock.lap(out, Layer::CacheInsert);
                (Some("miss"), body)
            }
        }
    };
    let headers: Vec<(&str, String)> =
        tier.map(|t| ("X-Cache", t.to_owned())).into_iter().collect();
    let wire = response_bytes(200, "application/json", &headers, &body, request.keep_alive);
    clock.lap(out, Layer::Encode);
    out.bytes_out += wire.len() as u64;
    std::hint::black_box(wire);
    Ok(())
}
