//! Declarative sweep campaign specifications.
//!
//! A [`SweepSpec`] names a grid of (preset/generator × demand load ×
//! algorithm × seed) cells plus per-cell budgets. Specs deserialize from a
//! flat TOML subset or from a flat JSON object (the vendored `serde` is a
//! no-op derive stub, so both readers are hand-rolled); see
//! [`SweepSpec::example_toml`] for the schema by example.
//!
//! [`SweepSpec::cells`] expands the grid into independent [`Cell`]s in a
//! canonical order. Each cell's RNG seed is derived deterministically from
//! `(campaign_seed, cell key)` by [`derive_cell_seed`], so a cell's result
//! is bit-identical regardless of worker-thread count, shard order, or how
//! many times the campaign was interrupted and resumed.

use fusion_bench::workloads::Algorithm;
use fusion_sim::experiment::{resolve_preset, ExperimentConfig};
use fusion_topology::GeneratorKind;

/// A parsed specification value.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecValue {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A homogeneous or mixed inline list.
    List(Vec<SpecValue>),
}

/// Hard ceiling on Monte Carlo rounds for cells at or beyond 1000
/// switches, mirroring the `figures` binary's large-topology budget: a
/// sweep is many cells, so one silently mis-sized cell multiplies into
/// hours of grinding.
pub const LARGE_SWITCH_FLOOR: usize = 1_000;
/// See [`LARGE_SWITCH_FLOOR`].
pub const LARGE_MAX_ROUNDS: usize = 1_000;

/// A declarative sweep campaign: the experiment grid and its budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name (used in the manifest and reports).
    pub name: String,
    /// Base seed every cell seed is derived from.
    pub campaign_seed: u64,
    /// Canonical preset names (see `sweep list-presets`).
    pub presets: Vec<String>,
    /// Optional generator family for a custom switch-count grid
    /// (`waxman`, `watts-strogatz`, `aiello`, `grid`).
    pub generator: Option<String>,
    /// Switch counts expanded against `generator` into synthetic presets
    /// named `<generator>-<count>`.
    pub switch_counts: Vec<usize>,
    /// Network samples per configuration (the multi-seed axis).
    pub seeds: usize,
    /// Demand loads (`num_user_pairs` overrides); empty keeps each
    /// preset's own load.
    pub loads: Vec<usize>,
    /// Algorithm display names; empty means the four main algorithms.
    pub algorithms: Vec<String>,
    /// Monte Carlo rounds per cell; `Some(0)` reports analytic rates.
    pub mc_rounds: Option<usize>,
    /// Candidate-path budget override for Algorithm 2.
    pub h: Option<usize>,
    /// Per-cell wall-clock budget; cells exceeding it are recorded with
    /// `over_budget = true` and a warning.
    pub max_cell_seconds: Option<f64>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            name: String::new(),
            campaign_seed: 0,
            presets: Vec::new(),
            generator: None,
            switch_counts: Vec::new(),
            seeds: 5,
            loads: Vec::new(),
            algorithms: Vec::new(),
            mc_rounds: None,
            h: None,
            max_cell_seconds: None,
        }
    }
}

/// One independent unit of work: a fully-resolved configuration plus the
/// derived seed that makes it reproducible in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Preset label (canonical or synthetic `<generator>-<count>`).
    pub preset: String,
    /// Demand load (`num_user_pairs`) of this cell.
    pub load: usize,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// Index on the seed axis (`0..spec.seeds`).
    pub seed_index: usize,
    /// RNG seed derived from `(campaign_seed, key)`.
    pub derived_seed: u64,
    /// Resolved experiment configuration: one network, one inner thread
    /// (the scheduler parallelizes across cells), `seed = derived_seed`.
    pub config: ExperimentConfig,
}

impl Cell {
    /// The canonical cell key: the unit of resume bookkeeping and seed
    /// derivation. Stable across releases — changing it orphans the rows
    /// of interrupted campaigns.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/load{}/{}/seed{}",
            self.preset,
            self.load,
            self.algorithm.name(),
            self.seed_index
        )
    }
}

/// The first value appearing more than once, rendered for an error.
fn first_duplicate<T: PartialEq + std::fmt::Debug>(items: &[T]) -> Option<String> {
    items
        .iter()
        .enumerate()
        .find(|(i, item)| items[..*i].contains(item))
        .map(|(_, item)| format!("{item:?}"))
}

/// FNV-1a over the key string: stable, dependency-free.
fn fnv1a64(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finalizer: decorrelates nearby inputs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives a cell's RNG seed from the campaign seed and its canonical
/// key. Pure and stable: the same `(campaign_seed, key)` pair always
/// yields the same seed, which is what makes sweep results independent of
/// thread count, shard order, and resume boundaries.
#[must_use]
pub fn derive_cell_seed(campaign_seed: u64, key: &str) -> u64 {
    splitmix64(campaign_seed ^ fnv1a64(key).rotate_left(17))
}

impl SweepSpec {
    /// Parses a spec from TOML (flat `key = value` lines) or JSON (one
    /// flat object); the format is auto-detected from the first
    /// non-whitespace byte.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema error.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let entries = if text.trim_start().starts_with('{') {
            parse_json_object(text)?
        } else {
            parse_toml(text)?
        };
        SweepSpec::from_entries(entries)
    }

    fn from_entries(entries: Vec<(String, SpecValue)>) -> Result<SweepSpec, String> {
        let mut spec = SweepSpec::default();
        for (key, value) in entries {
            match key.as_str() {
                "name" => spec.name = take_str(&key, value)?,
                "campaign_seed" => {
                    #[allow(clippy::cast_sign_loss)]
                    {
                        spec.campaign_seed = take_int(&key, value)? as u64;
                    }
                }
                "presets" => spec.presets = take_str_list(&key, value)?,
                "generator" => spec.generator = Some(take_str(&key, value)?),
                "switch_counts" => spec.switch_counts = take_usize_list(&key, value)?,
                "seeds" => spec.seeds = take_usize(&key, value)?,
                "loads" => spec.loads = take_usize_list(&key, value)?,
                "algorithms" => spec.algorithms = take_str_list(&key, value)?,
                "mc_rounds" => spec.mc_rounds = Some(take_usize(&key, value)?),
                "h" => spec.h = Some(take_usize(&key, value)?),
                "max_cell_seconds" => spec.max_cell_seconds = Some(take_num(&key, value)?),
                other => return Err(format!("unknown spec key {other:?}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec for schema errors: unknown presets, generators, or
    /// algorithms; an empty grid; budgets that would grind for hours.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("spec needs a non-empty `name`".to_string());
        }
        if self.seeds == 0 {
            return Err("`seeds` must be at least 1".to_string());
        }
        if self.presets.is_empty() && self.switch_counts.is_empty() {
            return Err(
                "spec needs `presets = [...]` and/or `generator` + `switch_counts`".to_string(),
            );
        }
        // Duplicate axis entries would expand into identical cell keys:
        // the duplicates collapse on resume but inflate a fresh run's
        // seed counts (halving the reported CI for no extra information).
        for (key, duplicate) in [
            ("presets", first_duplicate(&self.presets)),
            ("algorithms", first_duplicate(&self.algorithms)),
            ("loads", first_duplicate(&self.loads)),
            ("switch_counts", first_duplicate(&self.switch_counts)),
        ] {
            if let Some(dup) = duplicate {
                return Err(format!("`{key}` lists {dup} twice"));
            }
        }
        for preset in &self.presets {
            if resolve_preset(preset).is_none() {
                return Err(format!(
                    "unknown preset {preset:?}; see `sweep list-presets`"
                ));
            }
        }
        if !self.switch_counts.is_empty() && self.generator.is_none() {
            return Err("`switch_counts` needs a `generator`".to_string());
        }
        if let Some(generator) = &self.generator {
            if GeneratorKind::parse(generator).is_none() {
                return Err(format!(
                    "unknown generator {generator:?}; known: {}",
                    GeneratorKind::all_default()
                        .iter()
                        .map(GeneratorKind::name)
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
            if self.switch_counts.is_empty() {
                return Err("`generator` needs `switch_counts = [...]`".to_string());
            }
            if self.switch_counts.contains(&0) {
                return Err("`switch_counts` entries must be positive".to_string());
            }
        }
        for name in &self.algorithms {
            if Algorithm::from_name(name).is_none() {
                return Err(format!(
                    "unknown algorithm {name:?}; known: {}",
                    Algorithm::ALL
                        .iter()
                        .map(|a| a.name())
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
        if self.loads.contains(&0) {
            return Err("`loads` entries must be positive".to_string());
        }
        // Budget guard, mirroring `figures`: at 1k+ switches a mis-sized
        // Monte Carlo budget multiplies across every cell of the grid.
        let largest = self.largest_switch_count();
        if largest >= LARGE_SWITCH_FLOOR {
            if let Some(rounds) = self.mc_rounds {
                if rounds > LARGE_MAX_ROUNDS {
                    return Err(format!(
                        "mc_rounds {rounds} exceeds the large-topology budget of \
                         {LARGE_MAX_ROUNDS} for {largest}-switch cells; lower it or use \
                         mc_rounds = 0 (analytic rates)"
                    ));
                }
            }
        }
        Ok(())
    }

    fn largest_switch_count(&self) -> usize {
        self.presets
            .iter()
            .filter_map(|p| resolve_preset(p))
            .map(|c| c.topology.num_switches)
            .chain(self.switch_counts.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// The preset axis in expansion order: canonical presets first, then
    /// the synthetic `<generator>-<count>` grid.
    fn preset_axis(&self) -> Vec<(String, ExperimentConfig)> {
        let mut axis: Vec<(String, ExperimentConfig)> = self
            .presets
            .iter()
            .map(|name| {
                let config = resolve_preset(name).expect("validated preset");
                (name.clone(), config)
            })
            .collect();
        if let Some(generator) = &self.generator {
            let kind = GeneratorKind::parse(generator).expect("validated generator");
            for &n in &self.switch_counts {
                let mut config = ExperimentConfig::large(n);
                config.topology.kind = kind;
                axis.push((format!("{}-{n}", kind.name()), config));
            }
        }
        axis
    }

    /// The algorithm axis; empty spec lists default to the four main
    /// algorithms of the evaluation.
    #[must_use]
    pub fn algorithm_axis(&self) -> Vec<Algorithm> {
        if self.algorithms.is_empty() {
            Algorithm::MAIN.to_vec()
        } else {
            self.algorithms
                .iter()
                .map(|n| Algorithm::from_name(n).expect("validated algorithm"))
                .collect()
        }
    }

    /// Expands the grid into cells in canonical order: preset axis, then
    /// load, then algorithm, then seed index.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (preset, base) in self.preset_axis() {
            let loads = if self.loads.is_empty() {
                vec![base.topology.num_user_pairs]
            } else {
                self.loads.clone()
            };
            for &load in &loads {
                for algorithm in self.algorithm_axis() {
                    for seed_index in 0..self.seeds {
                        let mut config = base.clone();
                        config.topology.num_user_pairs = load;
                        config.networks = 1;
                        // One inner thread: the scheduler parallelizes
                        // across cells, and serial estimation keeps the
                        // per-cell RNG stream canonical.
                        config.threads = 1;
                        if let Some(rounds) = self.mc_rounds {
                            config.mc_rounds = rounds;
                        }
                        if let Some(h) = self.h {
                            config.h = h;
                        }
                        let mut cell = Cell {
                            preset: preset.clone(),
                            load,
                            algorithm,
                            seed_index,
                            derived_seed: 0,
                            config,
                        };
                        cell.derived_seed = derive_cell_seed(self.campaign_seed, &cell.key());
                        cell.config.seed = cell.derived_seed;
                        cells.push(cell);
                    }
                }
            }
        }
        cells
    }

    /// A canonical single-line rendering of the spec, fingerprinted by the
    /// manifest so a campaign directory refuses rows from a different
    /// spec.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "name={};campaign_seed={};presets={};generator={};switch_counts={:?};seeds={};\
             loads={:?};algorithms={};mc_rounds={:?};h={:?}",
            self.name,
            self.campaign_seed,
            self.presets.join(","),
            self.generator.as_deref().unwrap_or("-"),
            self.switch_counts,
            self.seeds,
            self.loads,
            self.algorithms.join(","),
            self.mc_rounds,
            self.h,
        )
    }

    /// Stable fingerprint of [`SweepSpec::canonical`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(&self.canonical())
    }

    /// A commented example spec covering every schema field.
    #[must_use]
    pub fn example_toml() -> &'static str {
        r#"# Sweep campaign: a flat `key = value` TOML subset (or the same
# fields as one flat JSON object). Run with:
#   sweep run --spec campaign.toml --out results/campaign

# Campaign identity; every cell seed derives from (campaign_seed, cell key).
name = "fig9b-extension"
campaign_seed = 77

# Preset axis: canonical names (`sweep list-presets`), plus an optional
# custom grid of <generator>-<count> topologies.
presets = ["default", "large-1k-grid"]
generator = "grid"
switch_counts = [2000, 5000]

# Seed axis: networks sampled per configuration.
seeds = 5

# Demand loads (num_user_pairs); omit to keep each preset's own load.
loads = [20, 50]

# Algorithms by display name; omit for the four main ones.
algorithms = ["ALG-N-FUSION", "Q-CAST-N"]

# Per-cell budgets. mc_rounds = 0 reports analytic (Eq. 1) rates.
mc_rounds = 200
h = 3
max_cell_seconds = 600.0
"#
    }
}

fn take_str(key: &str, value: SpecValue) -> Result<String, String> {
    match value {
        SpecValue::Str(s) => Ok(s),
        other => Err(format!("`{key}` must be a string, got {other:?}")),
    }
}

fn take_int(key: &str, value: SpecValue) -> Result<i64, String> {
    match value {
        SpecValue::Int(i) => Ok(i),
        other => Err(format!("`{key}` must be an integer, got {other:?}")),
    }
}

fn take_usize(key: &str, value: SpecValue) -> Result<usize, String> {
    let i = take_int(key, value)?;
    usize::try_from(i).map_err(|_| format!("`{key}` must be non-negative, got {i}"))
}

fn take_num(key: &str, value: SpecValue) -> Result<f64, String> {
    match value {
        SpecValue::Num(x) => Ok(x),
        #[allow(clippy::cast_precision_loss)]
        SpecValue::Int(i) => Ok(i as f64),
        other => Err(format!("`{key}` must be a number, got {other:?}")),
    }
}

fn take_list(key: &str, value: SpecValue) -> Result<Vec<SpecValue>, String> {
    match value {
        SpecValue::List(items) => Ok(items),
        other => Err(format!("`{key}` must be a list, got {other:?}")),
    }
}

fn take_str_list(key: &str, value: SpecValue) -> Result<Vec<String>, String> {
    take_list(key, value)?
        .into_iter()
        .map(|v| take_str(key, v))
        .collect()
}

fn take_usize_list(key: &str, value: SpecValue) -> Result<Vec<usize>, String> {
    take_list(key, value)?
        .into_iter()
        .map(|v| take_usize(key, v))
        .collect()
}

// ---------------------------------------------------------------------
// Readers: a flat TOML subset and a flat JSON object over one shared
// value grammar (quoted strings, integers, floats, booleans, inline
// lists).
// ---------------------------------------------------------------------

/// Parses flat `key = value` TOML: one assignment per line, `#` comments,
/// no tables or multi-line values.
fn parse_toml(text: &str) -> Result<Vec<(String, SpecValue)>, String> {
    let mut entries = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
        let key = key.trim();
        if key.is_empty() || !key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            return Err(format!("line {}: malformed key {key:?}", lineno + 1));
        }
        let value = parse_value_str(value.trim())
            .map_err(|e| format!("line {} (`{key}`): {e}", lineno + 1))?;
        entries.push((key.to_string(), value));
    }
    Ok(entries)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Parses one flat JSON object into entries.
fn parse_json_object(text: &str) -> Result<Vec<(String, SpecValue)>, String> {
    let mut p = ValueParser::new(text);
    p.skip_ws();
    p.expect(b'{')?;
    let mut entries = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            let value = p.value()?;
            entries.push((key, value));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", p.pos)),
            }
        }
    }
    p.skip_ws();
    if p.peek().is_some() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(entries)
}

/// Parses a standalone value (one TOML right-hand side).
fn parse_value_str(text: &str) -> Result<SpecValue, String> {
    let mut p = ValueParser::new(text);
    let value = p.value()?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Shared recursive-descent value parser (JSON-compatible scalars and
/// inline lists, which are also valid TOML).
struct ValueParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ValueParser<'a> {
    fn new(text: &'a str) -> Self {
        ValueParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<SpecValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(SpecValue::Str(self.string()?)),
            Some(b'[') => self.list(),
            Some(b't') => self.literal("true", SpecValue::Bool(true)),
            Some(b'f') => self.literal("false", SpecValue::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte {:?} at {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn list(&mut self) -> Result<SpecValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(SpecValue::List(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    // Tolerate a TOML trailing comma before `]`.
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(SpecValue::List(items));
                    }
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(SpecValue::List(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn literal(&mut self, lit: &str, value: SpecValue) -> Result<SpecValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<SpecValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'_')
        ) {
            self.pos += 1;
        }
        let token: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid utf-8 in number at byte {start}"))?
            .chars()
            .filter(|&c| c != '_') // TOML allows 1_000 separators
            .collect();
        if token.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
            if let Ok(i) = token.parse::<i64>() {
                return Ok(SpecValue::Int(i));
            }
        }
        token
            .parse::<f64>()
            .map(SpecValue::Num)
            .map_err(|e| format!("malformed number {token:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        // Same \u handling as the row codec, so a value
                        // that round-trips through rows also parses here.
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        other => {
                            return Err(format!("unsupported escape '\\{}'", char::from(other)))
                        }
                    }
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".to_string(),
            campaign_seed: 9,
            presets: vec!["quick".to_string()],
            seeds: 2,
            loads: vec![4],
            algorithms: vec!["ALG-N-FUSION".to_string()],
            mc_rounds: Some(50),
            ..SweepSpec::default()
        }
    }

    #[test]
    fn example_toml_parses_and_validates() {
        let spec = SweepSpec::parse(SweepSpec::example_toml()).unwrap();
        assert_eq!(spec.name, "fig9b-extension");
        assert_eq!(spec.campaign_seed, 77);
        assert_eq!(spec.presets, vec!["default", "large-1k-grid"]);
        assert_eq!(spec.generator.as_deref(), Some("grid"));
        assert_eq!(spec.switch_counts, vec![2000, 5000]);
        assert_eq!(spec.seeds, 5);
        assert_eq!(spec.loads, vec![20, 50]);
        assert_eq!(spec.mc_rounds, Some(200));
        assert_eq!(spec.max_cell_seconds, Some(600.0));
        // 4 preset-axis entries × 2 loads × 2 algorithms × 5 seeds.
        assert_eq!(spec.cells().len(), 4 * 2 * 2 * 5);
    }

    #[test]
    fn json_spec_parses_identically() {
        let toml = r#"
name = "j"
campaign_seed = 3
presets = ["quick"]
seeds = 2
"#;
        let json = r#"{"name": "j", "campaign_seed": 3, "presets": ["quick"], "seeds": 2}"#;
        assert_eq!(
            SweepSpec::parse(toml).unwrap(),
            SweepSpec::parse(json).unwrap()
        );
    }

    #[test]
    fn rejects_schema_errors() {
        for (text, needle) in [
            ("seeds = 2", "non-empty `name`"),
            ("name = \"x\"\nseeds = 2", "presets"),
            ("name = \"x\"\npresets = [\"nope\"]", "unknown preset"),
            (
                "name = \"x\"\npresets = [\"quick\"]\nseeds = 0",
                "at least 1",
            ),
            (
                "name = \"x\"\npresets = [\"quick\"]\nalgorithms = [\"nope\"]",
                "unknown algorithm",
            ),
            ("name = \"x\"\nswitch_counts = [100]", "needs a `generator`"),
            (
                "name = \"x\"\ngenerator = \"erdos\"\nswitch_counts = [100]",
                "unknown generator",
            ),
            (
                "name = \"x\"\npresets = [\"large-1k\"]\nmc_rounds = 5000",
                "large-topology budget",
            ),
            ("name = \"x\"\nbogus_key = 1", "unknown spec key"),
            (
                "name = \"x\"\npresets = [\"quick\", \"quick\"]",
                "lists \"quick\" twice",
            ),
            (
                "name = \"x\"\npresets = [\"quick\"]\nloads = [5, 5]",
                "lists 5 twice",
            ),
            ("name måste = 1", "malformed key"),
            ("name = ", "unexpected end"),
        ] {
            let err = SweepSpec::parse(text).unwrap_err();
            assert!(
                err.contains(needle),
                "{text:?} should fail with {needle:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn unicode_escapes_match_the_row_codec() {
        let spec =
            SweepSpec::parse("name = \"caf\\u00e9\"\npresets = [\"quick\"]\nseeds = 1\n").unwrap();
        assert_eq!(spec.name, "café");
    }

    #[test]
    fn toml_comments_and_separators() {
        let spec = SweepSpec::parse(
            "# heading\nname = \"a#b\" # trailing\npresets = [\"quick\",]\nseeds = 1_0\n",
        )
        .unwrap();
        assert_eq!(spec.name, "a#b", "# inside quotes is not a comment");
        assert_eq!(spec.seeds, 10, "TOML underscore separators accepted");
        assert_eq!(spec.presets, vec!["quick"], "trailing comma accepted");
    }

    #[test]
    fn cells_expand_in_canonical_order_with_derived_seeds() {
        let spec = tiny_spec();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].key(), "quick/load4/ALG-N-FUSION/seed0");
        assert_eq!(cells[1].key(), "quick/load4/ALG-N-FUSION/seed1");
        for cell in &cells {
            assert_eq!(cell.config.networks, 1);
            assert_eq!(cell.config.threads, 1);
            assert_eq!(cell.config.topology.num_user_pairs, 4);
            assert_eq!(cell.config.mc_rounds, 50);
            assert_eq!(
                cell.derived_seed,
                derive_cell_seed(spec.campaign_seed, &cell.key())
            );
            assert_eq!(cell.config.seed, cell.derived_seed);
        }
        assert_ne!(
            cells[0].derived_seed, cells[1].derived_seed,
            "seed axis must decorrelate"
        );
    }

    #[test]
    fn derived_seeds_are_stable_and_campaign_dependent() {
        let a = derive_cell_seed(1, "quick/load4/ALG-N-FUSION/seed0");
        let b = derive_cell_seed(1, "quick/load4/ALG-N-FUSION/seed0");
        let c = derive_cell_seed(2, "quick/load4/ALG-N-FUSION/seed0");
        let d = derive_cell_seed(1, "quick/load4/ALG-N-FUSION/seed1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn generator_axis_builds_synthetic_presets() {
        let spec = SweepSpec {
            name: "g".to_string(),
            generator: Some("grid".to_string()),
            switch_counts: vec![100, 200],
            seeds: 1,
            algorithms: vec!["ALG-N-FUSION".to_string()],
            ..SweepSpec::default()
        };
        spec.validate().unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].preset, "grid-100");
        assert_eq!(cells[0].config.topology.num_switches, 100);
        assert_eq!(
            cells[0].config.topology.kind,
            fusion_topology::GeneratorKind::Grid
        );
        assert_eq!(cells[1].preset, "grid-200");
    }

    #[test]
    fn empty_algorithms_default_to_main_four() {
        let spec = SweepSpec {
            name: "m".to_string(),
            presets: vec!["quick".to_string()],
            seeds: 1,
            ..SweepSpec::default()
        };
        assert_eq!(spec.cells().len(), 4);
    }

    #[test]
    fn fingerprint_tracks_grid_changes_only() {
        let a = tiny_spec();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.max_cell_seconds = Some(1.0);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "wall budgets do not change results"
        );
        b.seeds = 3;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
