//! Inputs of the serving mirror: the `ssdserve` configuration, the seeded
//! request mix and its open-loop schedule, and the reference responses
//! every served answer must equal.

use ssd_field_study_core::serve::{FleetService, ScorerSpec, ServeConfig};
use ssd_stats::SplitMix64;
use std::collections::BTreeMap;

/// The serving configuration: `ssdserve --shards 2 --sample-rate 0.05
/// --seed S` with its defaults otherwise (forest of 30 trees, lookahead
/// 7, queue depth 16). `ssdpredict` runs with the same training flags.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        shards: 2,
        queue_cap: 16,
        scorer: ScorerSpec::Forest { trees: 30 },
        lookahead_days: 7,
        sample_rate: 0.05,
        seed,
    }
}

/// Request kinds of the mix. The first five are the shard-pass kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `summary`: scans every drive.
    Summary,
    /// `hazard`: scans every drive.
    Hazard,
    /// `survival`: cheap fold over operational periods.
    Survival,
    /// `topk`: batch scoring.
    TopK,
    /// A 4-query array frame.
    Mixed,
    /// `info`: no shard pass.
    Info,
}

impl Kind {
    /// Kinds that need a shard pass, in `shard.pass_ms.*` order.
    pub const PASSES: [Kind; 5] = [
        Kind::Summary,
        Kind::Hazard,
        Kind::Survival,
        Kind::TopK,
        Kind::Mixed,
    ];

    /// A fixed body of this kind, used to time passes in isolation.
    pub fn canonical_body(self) -> &'static str {
        match self {
            Kind::Summary => r#"{"q":"summary"}"#,
            Kind::Hazard => r#"{"q":"hazard","bin_days":30}"#,
            Kind::Survival => r#"{"q":"survival"}"#,
            Kind::TopK => r#"{"q":"topk","k":10}"#,
            Kind::Mixed => {
                r#"[{"q":"summary"},{"q":"hazard","bin_days":90},{"q":"topk","k":5},{"q":"survival"}]"#
            }
            Kind::Info => r#"{"q":"info"}"#,
        }
    }

    /// Span name of one replica shard's pass for this kind.
    pub fn pass_span(self) -> &'static str {
        match self {
            Kind::Summary => "shard.pass.summary",
            Kind::Hazard => "shard.pass.hazard",
            Kind::Survival => "shard.pass.survival",
            Kind::TopK => "shard.pass.topk",
            Kind::Mixed => "shard.pass.mixed",
            Kind::Info => "shard.pass.info",
        }
    }

    /// Per-layer metric name of this kind's slowest shard pass.
    pub fn pass_metric(self) -> &'static str {
        match self {
            Kind::Summary => "shard.pass_ms.summary",
            Kind::Hazard => "shard.pass_ms.hazard",
            Kind::Survival => "shard.pass_ms.survival",
            Kind::TopK => "shard.pass_ms.topk",
            Kind::Mixed => "shard.pass_ms.mixed",
            Kind::Info => "shard.pass_ms.info",
        }
    }
}

/// The seeded request mix: distinct frame bodies and how requests pick
/// among them.
pub struct Mix {
    /// Distinct request frame bodies.
    pub bodies: Vec<String>,
    /// Kind of each body.
    pub kinds: Vec<Kind>,
    seed: u64,
}

impl Mix {
    /// Nine bodies: one each of `summary`, `survival` and `info`, two
    /// each of `hazard`, `topk` and 4-query array frames. Hazard bin
    /// widths, top-k sizes and array contents are drawn from `seed`.
    pub fn new(seed: u64) -> Mix {
        let mut rng = SplitMix64::new(seed ^ 0x5e7e_0001);
        let query = |kind: Kind, rng: &mut SplitMix64| -> String {
            match kind {
                Kind::Hazard => format!(
                    r#"{{"q":"hazard","bin_days":{}}}"#,
                    7 + rng.next_u64() % 359
                ),
                Kind::TopK => format!(r#"{{"q":"topk","k":{}}}"#, 1 + rng.next_u64() % 200),
                other => other.canonical_body().into(),
            }
        };
        let mut bodies = Vec::new();
        let mut kinds = Vec::new();
        for kind in [
            Kind::Summary,
            Kind::Survival,
            Kind::Info,
            Kind::Hazard,
            Kind::Hazard,
            Kind::TopK,
            Kind::TopK,
        ] {
            bodies.push(query(kind, &mut rng));
            kinds.push(kind);
        }
        for _ in 0..2 {
            let parts: Vec<String> = [Kind::Summary, Kind::Hazard, Kind::TopK, Kind::Survival]
                .into_iter()
                .map(|kind| query(kind, &mut rng))
                .collect();
            bodies.push(format!("[{}]", parts.join(",")));
            kinds.push(Kind::Mixed);
        }
        Mix {
            bodies,
            kinds,
            seed,
        }
    }

    /// `n` body indices for stream id `stream`: blocks holding every body
    /// once, each block in a seeded order.
    fn sequence(&self, stream: u64, n: usize) -> Vec<usize> {
        let mut block: Vec<usize> = (0..self.bodies.len()).collect();
        let mut rng = SplitMix64::new(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut out = Vec::with_capacity(n + block.len());
        while out.len() < n {
            for i in (1..block.len()).rev() {
                block.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            out.extend_from_slice(&block);
        }
        out.truncate(n);
        out
    }
}

/// One scheduled request.
pub struct Item {
    /// Connection (client thread) 0 or 1.
    pub conn: usize,
    /// Due time in seconds from the loop's start.
    pub due_s: f64,
    /// Index into [`Mix::bodies`].
    pub body: usize,
}

/// `n` requests at `rate_rps`, evenly spaced and alternating between the
/// two connections.
pub fn schedule(rate_rps: f64, n: usize, mix: &Mix) -> Vec<Item> {
    mix.sequence(rate_rps.to_bits(), n)
        .into_iter()
        .enumerate()
        .map(|(i, body)| Item {
            conn: i % 2,
            due_s: i as f64 / rate_rps,
            body,
        })
        .collect()
}

/// `FleetService::respond` of every distinct body; each must be a
/// well-formed JSON frame without an error object.
pub fn expected_responses(
    service: &FleetService,
    mix: &Mix,
) -> Result<BTreeMap<usize, Vec<u8>>, String> {
    let mut out = BTreeMap::new();
    for (i, body) in mix.bodies.iter().enumerate() {
        let resp = service
            .respond(body.as_bytes())
            .map_err(|e| format!("respond {body}: {e}"))?;
        if !well_formed(&resp) {
            return Err(format!(
                "reference response to {body} is an error or malformed"
            ));
        }
        out.insert(i, resp);
    }
    Ok(out)
}

/// Parses as JSON and carries no `err` object at the top or in an array.
fn well_formed(resp: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(resp) else {
        return false;
    };
    match ssd_types::json::parse(text) {
        Ok(ssd_types::json::Value::Arr(items)) => items.iter().all(|v| v.get("err").is_none()),
        Ok(v) => v.get("err").is_none(),
        Err(_) => false,
    }
}
