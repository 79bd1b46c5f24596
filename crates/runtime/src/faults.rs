//! Deterministic fault injection for the serving replay.
//!
//! A [`FaultPlan`] describes every failure a serving run will experience,
//! entirely on the **virtual cycle clock**:
//!
//! * **Tile fail/recover events** ([`TileFaultEvent`]) — at a given cycle a
//!   tile leaves (or rejoins) the live set. A failing tile *drains*: the
//!   request it is executing completes, but no new gang is dispatched onto
//!   it until a recover event fires. Gang dispatch and layer planning
//!   replan over the live tile set, so reduced capacity shows up as longer
//!   layer makespans, never as lost work.
//! * **Slow tiles** ([`SlowTile`]) — a tile with a cycle multiplier above
//!   100% stretches the service time of every gang it joins (a gang
//!   advances at its slowest member's pace).
//! * **Transient dispatch failures** — each dispatch *attempt* of each
//!   request fails independently with probability [`FaultPlan::fail_rate`],
//!   decided by a counter-based seeded stream (below). A failed attempt is
//!   retried with exponential backoff when the retry policy allows, and
//!   shed otherwise.
//!
//! # Determinism
//!
//! Every random quantity — transient failures and backoff jitter — is a
//! pure function of `(plan seed, request id, attempt)` through the
//! counter-based `mix64` stream, **not** a draw from a shared sequential
//! RNG. Counter addressing makes the outcome independent of the order in
//! which requests reach dispatch, so retry reordering, thread count, and
//! placement changes can never perturb the fault pattern: the same plan
//! and seed produce bit-identical serve reports for threads 1/2/4
//! (enforced by `tests/fault_tolerance.rs`).
//!
//! # Plan files
//!
//! Plans load from JSON (`leopard serve --faults plan.json`) via a
//! hand-rolled, depth-limited parser:
//!
//! ```json
//! {
//!   "seed": 7,
//!   "fail_rate": 0.1,
//!   "tile_events": [
//!     {"cycle": 40000, "tile": 0, "kind": "fail"},
//!     {"cycle": 90000, "tile": 0, "kind": "recover"}
//!   ],
//!   "slow_tiles": [{"tile": 2, "multiplier_pct": 150}]
//! }
//! ```
//!
//! Every key is optional; unknown keys are rejected so a typo cannot
//! silently disable a fault. `--fault-seed`/`--fail-rate` generate the
//! transient-only plan without a file.

use std::fmt::Write as _;

/// What happens to a tile at a [`TileFaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TileFaultKind {
    /// The tile leaves the live set (drains its current gang, then idles).
    Fail,
    /// The tile rejoins the live set.
    Recover,
}

impl TileFaultKind {
    /// The JSON/report label (`"fail"` / `"recover"`).
    pub fn label(&self) -> &'static str {
        match self {
            TileFaultKind::Fail => "fail",
            TileFaultKind::Recover => "recover",
        }
    }
}

/// One scheduled change of a tile's liveness, on the virtual cycle clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileFaultEvent {
    /// Virtual cycle the event fires at.
    pub cycle: u64,
    /// The tile the event applies to.
    pub tile: usize,
    /// Whether the tile fails or recovers.
    pub kind: TileFaultKind,
}

/// A tile that runs slow: every gang containing it stretches its service
/// time by `multiplier_pct / 100` (ceiling division, so the stretch is
/// integer cycles and byte-stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowTile {
    /// The slow tile.
    pub tile: usize,
    /// Cycle multiplier in percent; `100` is nominal speed, `150` means
    /// every service on this tile's gang takes 1.5× as long.
    pub multiplier_pct: u32,
}

/// A deterministic, virtual-clock fault scenario for one serving run. See
/// the [module docs](self) for the schema and determinism contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the counter-based fault stream (transient failures and
    /// backoff jitter).
    pub seed: u64,
    /// Probability in `[0, 1]` that any single dispatch attempt fails
    /// transiently.
    pub fail_rate: f64,
    /// Tile fail/recover events, sorted by `(cycle, tile)` on load.
    pub tile_events: Vec<TileFaultEvent>,
    /// Slow tiles and their cycle multipliers.
    pub slow_tiles: Vec<SlowTile>,
}

/// Domain-separation tags of the two fault streams: the same `(request,
/// attempt)` counter must never reuse a draw across purposes.
const TAG_TRANSIENT: u64 = 0x7472_616e_7369_656e; // "transien"
const TAG_JITTER: u64 = 0x6a69_7474_6572_0000; // "jitter"

/// SplitMix64 finalizer: a bijective avalanche mix, used here as the
/// counter-based fault stream (pure function of its input, so draws are
/// addressable by `(seed, tag, request, attempt)` instead of consumed in
/// sequence — the property the determinism contract needs).
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One draw of the counter-based stream.
fn draw(seed: u64, tag: u64, request: u64, attempt: u64) -> u64 {
    mix64(mix64(mix64(seed ^ tag).wrapping_add(request)).wrapping_add(attempt))
}

impl FaultPlan {
    /// A transient-failures-only plan: every dispatch attempt fails with
    /// probability `fail_rate`, decided by `seed` (the
    /// `--fault-seed`/`--fail-rate` CLI form).
    ///
    /// # Errors
    ///
    /// Rejects a `fail_rate` outside `[0, 1]` or non-finite.
    pub fn transient(seed: u64, fail_rate: f64) -> Result<Self, String> {
        if !(fail_rate.is_finite() && (0.0..=1.0).contains(&fail_rate)) {
            return Err(format!(
                "fail rate must be a probability in [0, 1], got {fail_rate}"
            ));
        }
        Ok(Self {
            seed,
            fail_rate,
            ..Self::default()
        })
    }

    /// Whether the plan injects anything at all. An empty plan leaves the
    /// serving replay byte-identical to a run with no plan.
    pub fn is_empty(&self) -> bool {
        self.fail_rate == 0.0 && self.tile_events.is_empty() && self.slow_tiles.is_empty()
    }

    /// Whether the plan changes tile liveness (and therefore forces
    /// topology-aware replanning).
    pub fn has_tile_events(&self) -> bool {
        !self.tile_events.is_empty()
    }

    /// Validates the plan against a concrete tile count and returns the
    /// plan with `tile_events` sorted by `(cycle, tile, kind)` — the order
    /// the replay applies them in.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range tiles, multipliers below 100%, a fail rate
    /// outside `[0, 1]`, and a plan whose fail events would permanently
    /// take *every* tile down with traffic still arriving is allowed —
    /// the replay sheds the stranded requests — but an event naming tile
    /// `servers` or beyond is a plan bug and is reported as one.
    pub fn validated(mut self, servers: usize) -> Result<Self, String> {
        if !(self.fail_rate.is_finite() && (0.0..=1.0).contains(&self.fail_rate)) {
            return Err(format!(
                "fail rate must be a probability in [0, 1], got {}",
                self.fail_rate
            ));
        }
        for event in &self.tile_events {
            if event.tile >= servers {
                return Err(format!(
                    "tile event at cycle {} names tile {} but the run has {} tiles",
                    event.cycle, event.tile, servers
                ));
            }
        }
        for slow in &self.slow_tiles {
            if slow.tile >= servers {
                return Err(format!(
                    "slow tile {} out of range for {} tiles",
                    slow.tile, servers
                ));
            }
            if slow.multiplier_pct < 100 {
                return Err(format!(
                    "slow-tile multiplier must be >= 100 percent, got {} for tile {}",
                    slow.multiplier_pct, slow.tile
                ));
            }
        }
        let mut seen = Vec::new();
        for slow in &self.slow_tiles {
            if seen.contains(&slow.tile) {
                return Err(format!("tile {} listed twice in slow_tiles", slow.tile));
            }
            seen.push(slow.tile);
        }
        self.tile_events
            .sort_by_key(|e| (e.cycle, e.tile, e.kind == TileFaultKind::Recover));
        Ok(self)
    }

    /// Whether dispatch attempt `attempt` of request `request` fails
    /// transiently. A pure function of `(seed, request, attempt)`; with a
    /// zero fail rate no stream is even consulted.
    #[inline]
    pub fn transient_fails(&self, request: usize, attempt: u32) -> bool {
        if self.fail_rate <= 0.0 {
            return false;
        }
        if self.fail_rate >= 1.0 {
            return true;
        }
        let threshold = (self.fail_rate * u64::MAX as f64) as u64;
        draw(self.seed, TAG_TRANSIENT, request as u64, u64::from(attempt)) < threshold
    }

    /// The deferral delay before retry `attempt + 1` of `request`:
    /// exponential backoff (`base << attempt`, shift saturated at 32) plus
    /// a jitter drawn uniformly from `[0, base)` out of the seeded stream,
    /// so synchronized retries de-correlate deterministically.
    #[inline]
    pub fn backoff_cycles(&self, base: u64, request: usize, attempt: u32) -> u64 {
        let backoff = base.saturating_mul(1u64 << u64::from(attempt.min(32)));
        let jitter = if base > 1 {
            draw(self.seed, TAG_JITTER, request as u64, u64::from(attempt)) % base
        } else {
            0
        };
        backoff.saturating_add(jitter)
    }

    /// The cycle multiplier of `tile` in percent (100 when not slow).
    pub fn slow_pct(&self, tile: usize) -> u32 {
        self.slow_tiles
            .iter()
            .find(|s| s.tile == tile)
            .map_or(100, |s| s.multiplier_pct)
    }

    /// Parses a plan from its JSON form (see the [module docs](self) for
    /// the schema).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed construct; unknown keys are
    /// rejected.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = parse_json(text)?;
        let object = value.as_object("fault plan")?;
        let mut plan = FaultPlan::default();
        for (key, value) in object {
            match key.as_str() {
                "seed" => plan.seed = value.as_int("seed")?,
                "fail_rate" => plan.fail_rate = value.as_f64("fail_rate")?,
                "tile_events" => {
                    for entry in value.as_array("tile_events")? {
                        plan.tile_events.push(parse_tile_event(entry)?);
                    }
                }
                "slow_tiles" => {
                    for entry in value.as_array("slow_tiles")? {
                        plan.slow_tiles.push(parse_slow_tile(entry)?);
                    }
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back to its JSON form ([`from_json`](Self::from_json)
    /// round-trips it).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"fail_rate\": {},", self.fail_rate);
        let events: Vec<String> = self
            .tile_events
            .iter()
            .map(|e| {
                format!(
                    "{{\"cycle\": {}, \"tile\": {}, \"kind\": \"{}\"}}",
                    e.cycle,
                    e.tile,
                    e.kind.label()
                )
            })
            .collect();
        let _ = writeln!(out, "  \"tile_events\": [{}],", events.join(", "));
        let slow: Vec<String> = self
            .slow_tiles
            .iter()
            .map(|s| {
                format!(
                    "{{\"tile\": {}, \"multiplier_pct\": {}}}",
                    s.tile, s.multiplier_pct
                )
            })
            .collect();
        let _ = writeln!(out, "  \"slow_tiles\": [{}]", slow.join(", "));
        out.push_str("}\n");
        out
    }
}

fn parse_tile_event(value: &Json) -> Result<TileFaultEvent, String> {
    let object = value.as_object("tile event")?;
    let (mut cycle, mut tile, mut kind) = (None, None, None);
    for (key, value) in object {
        match key.as_str() {
            "cycle" => cycle = Some(value.as_int("cycle")?),
            "tile" => tile = Some(value.as_int("tile")?),
            "kind" => {
                kind = Some(match value.as_str("kind")? {
                    "fail" => TileFaultKind::Fail,
                    "recover" => TileFaultKind::Recover,
                    other => {
                        return Err(format!(
                            "unknown tile-event kind {other:?} (expected fail or recover)"
                        ))
                    }
                })
            }
            other => return Err(format!("unknown tile-event key {other:?}")),
        }
    }
    Ok(TileFaultEvent {
        cycle: cycle.ok_or("tile event missing \"cycle\"")?,
        tile: tile.ok_or("tile event missing \"tile\"")?,
        kind: kind.ok_or("tile event missing \"kind\"")?,
    })
}

fn parse_slow_tile(value: &Json) -> Result<SlowTile, String> {
    let object = value.as_object("slow tile")?;
    let (mut tile, mut multiplier) = (None, None);
    for (key, value) in object {
        match key.as_str() {
            "tile" => tile = Some(value.as_int("tile")?),
            "multiplier_pct" => multiplier = Some(value.as_int("multiplier_pct")?),
            other => return Err(format!("unknown slow-tile key {other:?}")),
        }
    }
    Ok(SlowTile {
        tile: tile.ok_or("slow tile missing \"tile\"")?,
        multiplier_pct: multiplier.ok_or("slow tile missing \"multiplier_pct\"")?,
    })
}

/// Minimal JSON value model — just enough for fault plans, read by a
/// hand-rolled recursive-descent parser.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// A number's source text and its byte offset. Integer fields parse
    /// the text exactly; a trip through `f64` would round anything above
    /// 2^53.
    Number(String, usize),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(entries) => Ok(entries),
            other => Err(format!("{what} must be a JSON object, got {other:?}")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(entries) => Ok(entries),
            other => Err(format!("{what} must be a JSON array, got {other:?}")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!("{what} must be a JSON string, got {other:?}")),
        }
    }

    fn as_number(&self, what: &str) -> Result<(&str, usize), String> {
        match self {
            Json::Number(text, at) => Ok((text, *at)),
            other => Err(format!("{what} must be a JSON number, got {other:?}")),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, String> {
        let (text, at) = self.as_number(what)?;
        text.parse()
            .map_err(|_| format!("malformed number {text:?} at byte {at}"))
    }

    /// The number as an exact non-negative integer of type `T`, parsed
    /// from its source text.
    fn as_int<T: TryFrom<u64>>(&self, what: &str) -> Result<T, String> {
        let (text, at) = self.as_number(what)?;
        let out_of_range = || format!("{what} {text} at byte {at} is out of range");
        let n: u64 = text.parse().map_err(|e: std::num::ParseIntError| {
            if *e.kind() == std::num::IntErrorKind::PosOverflow {
                out_of_range()
            } else {
                format!("{what} must be a non-negative integer, got {text} at byte {at}")
            }
        })?;
        T::try_from(n).map_err(|_| out_of_range())
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. Fault plans nest
/// three levels; the cap keeps a hostile file from overflowing the stack of
/// the recursive reader.
const MAX_JSON_DEPTH: usize = 64;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut reader = Reader {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = reader.value()?;
    reader.skip_whitespace();
    if reader.pos != reader.bytes.len() {
        return Err(format!("trailing content at byte {}", reader.pos));
    }
    Ok(value)
}

impl Reader<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn consume(&mut self, expected: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != expected {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                expected as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            b'"' => Ok(Json::String(self.string()?)),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {} (fault plans use objects, arrays, \
                 strings, and numbers only)",
                other as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.consume(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut entries = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(entries));
        }
        loop {
            entries.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or("unterminated escape sequence")?;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => {
                            return Err(format!(
                                "unsupported escape \\{} in fault plan",
                                *other as char
                            ))
                        }
                    });
                    self.pos += 2;
                }
                Some(&byte) => {
                    // Multi-byte UTF-8 passes through unchanged: the input
                    // is a &str, so byte boundaries are already valid.
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    while byte >= 0x80 && self.bytes.get(end).is_some_and(|b| b & 0xc0 == 0x80) {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid UTF-8".to_string())?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number".to_string())?;
        text.parse::<f64>()
            .map(|_| Json::Number(text.to_string(), start))
            .map_err(|_| format!("malformed number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tile_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            fail_rate: 0.25,
            tile_events: vec![
                TileFaultEvent {
                    cycle: 40_000,
                    tile: 1,
                    kind: TileFaultKind::Fail,
                },
                TileFaultEvent {
                    cycle: 10_000,
                    tile: 0,
                    kind: TileFaultKind::Fail,
                },
                TileFaultEvent {
                    cycle: 90_000,
                    tile: 0,
                    kind: TileFaultKind::Recover,
                },
            ],
            slow_tiles: vec![SlowTile {
                tile: 2,
                multiplier_pct: 150,
            }],
        }
    }

    #[test]
    fn json_round_trips_and_sorts_events_on_validation() {
        let plan = two_tile_plan();
        let parsed = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(parsed, plan);
        let validated = parsed.validated(4).unwrap();
        let cycles: Vec<u64> = validated.tile_events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![10_000, 40_000, 90_000], "sorted by cycle");
        // An empty document parses to the empty plan.
        let empty = FaultPlan::from_json("{}").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty, FaultPlan::default());
    }

    #[test]
    fn malformed_plans_are_rejected_with_positioned_errors() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("[1, 2]").is_err(), "not an object");
        assert!(FaultPlan::from_json("{\"seed\": 1} extra").is_err());
        assert!(
            FaultPlan::from_json("{\"sed\": 1}").is_err(),
            "typoed keys must not be silently ignored"
        );
        assert!(FaultPlan::from_json("{\"seed\": -3}").is_err());
        assert!(FaultPlan::from_json("{\"tile_events\": [{\"cycle\": 1}]}").is_err());
        assert!(FaultPlan::from_json(
            "{\"tile_events\": [{\"cycle\": 1, \"tile\": 0, \"kind\": \"melt\"}]}"
        )
        .is_err());
        // Validation range checks.
        assert!(two_tile_plan().validated(1).is_err(), "tile out of range");
        assert!(FaultPlan::transient(1, 1.5).is_err());
        assert!(FaultPlan::transient(1, f64::NAN).is_err());
        let narrow = FaultPlan {
            slow_tiles: vec![SlowTile {
                tile: 0,
                multiplier_pct: 50,
            }],
            ..FaultPlan::default()
        };
        assert!(narrow.validated(4).is_err(), "sub-100% multiplier");
        let twice = FaultPlan {
            slow_tiles: vec![
                SlowTile {
                    tile: 0,
                    multiplier_pct: 120,
                },
                SlowTile {
                    tile: 0,
                    multiplier_pct: 130,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(twice.validated(4).is_err(), "duplicate slow tile");
    }

    #[test]
    fn transient_stream_is_counter_addressed_and_rate_accurate() {
        let plan = FaultPlan::transient(42, 0.25).unwrap();
        // Pure function of (request, attempt): re-asking never flips.
        for request in 0..64 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.transient_fails(request, attempt),
                    plan.transient_fails(request, attempt)
                );
            }
        }
        // Empirical rate over a large counter window tracks the target.
        let fails = (0..20_000).filter(|&r| plan.transient_fails(r, 0)).count();
        let rate = fails as f64 / 20_000.0;
        assert!(
            (rate - 0.25).abs() < 0.02,
            "empirical transient rate {rate} far from 0.25"
        );
        // Different attempts of one request draw independently.
        let attempts: Vec<bool> = (0..8).map(|a| plan.transient_fails(5, a)).collect();
        assert!(
            attempts.iter().any(|&f| f) != attempts.iter().all(|&f| f),
            "attempt counter must enter the draw: {attempts:?}"
        );
        // Degenerate rates short-circuit.
        assert!(!FaultPlan::transient(1, 0.0).unwrap().transient_fails(0, 0));
        assert!(FaultPlan::transient(1, 1.0).unwrap().transient_fails(0, 0));
        // A different seed is a different pattern.
        let other = FaultPlan::transient(43, 0.25).unwrap();
        assert!((0..256).any(|r| plan.transient_fails(r, 0) != other.transient_fails(r, 0)));
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let plan = FaultPlan::transient(9, 0.5).unwrap();
        let base = 1024;
        for request in 0..32 {
            let mut previous = 0;
            for attempt in 0..5 {
                let backoff = plan.backoff_cycles(base, request, attempt);
                let floor = base << attempt;
                assert!(
                    (floor..floor + base).contains(&backoff),
                    "backoff {backoff} outside [{floor}, {})",
                    floor + base
                );
                assert!(backoff > previous, "backoff must grow per attempt");
                previous = backoff;
            }
        }
        // Jitter varies across requests (de-correlated retries) ...
        let jitters: Vec<u64> = (0..16)
            .map(|r| plan.backoff_cycles(base, r, 0) - base)
            .collect();
        assert!(jitters.iter().any(|&j| j != jitters[0]));
        // ... and the saturated shift never overflows.
        let huge = plan.backoff_cycles(u64::MAX / 2, 0, 63);
        assert_eq!(huge, u64::MAX, "saturating arithmetic");
    }

    #[test]
    fn slow_tile_lookup_defaults_to_nominal() {
        let plan = two_tile_plan();
        assert_eq!(plan.slow_pct(2), 150);
        assert_eq!(plan.slow_pct(0), 100);
        assert_eq!(plan.slow_pct(99), 100);
    }

    #[test]
    fn integer_fields_parse_exactly_and_reject_overflow() {
        // Above 2^53 an f64 round trip would turn this seed into
        // 12345678901234567168.
        let plan = FaultPlan {
            seed: 12_345_678_901_234_567_891,
            ..two_tile_plan()
        };
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
        let max = format!("{{\"seed\": {}}}", u64::MAX);
        assert_eq!(FaultPlan::from_json(&max).unwrap().seed, u64::MAX);
        // 2^32 + 150 must not wrap to 150.
        let err = FaultPlan::from_json(
            "{\"slow_tiles\": [{\"tile\": 0, \"multiplier_pct\": 4294967446}]}",
        )
        .unwrap_err();
        assert_eq!(err, "multiplier_pct 4294967446 at byte 46 is out of range");
        // 2^64 must not saturate to u64::MAX.
        let err = FaultPlan::from_json("{\"seed\": 18446744073709551616}").unwrap_err();
        assert_eq!(err, "seed 18446744073709551616 at byte 9 is out of range");
        // Integer fields take integer literals only.
        let err = FaultPlan::from_json("{\"seed\": 1.5}").unwrap_err();
        assert_eq!(
            err,
            "seed must be a non-negative integer, got 1.5 at byte 9"
        );
    }

    #[test]
    fn deeply_nested_plans_are_rejected_not_overflowed() {
        // 200k nested arrays would overflow the stack of an unbounded
        // recursive reader.
        let err = FaultPlan::from_json(&"[".repeat(200_000)).unwrap_err();
        assert!(
            err.contains("nesting deeper than 64 levels at byte 64"),
            "{err}"
        );
        // Nesting up to the cap still parses (and then fails on shape).
        let at_cap = format!("{}{}", "[".repeat(64), "]".repeat(64));
        let err = FaultPlan::from_json(&at_cap).unwrap_err();
        assert!(err.contains("must be a JSON object"), "{err}");
    }
}
