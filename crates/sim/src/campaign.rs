//! The campaign runner: sample, check, shrink, report.
//!
//! A campaign is a seeded stream of scenarios run against a selected
//! oracle set. The campaign seed is folded through the
//! `GALIOT_TEST_SEED` sweep (the same XOR rule every conformance suite
//! uses), then split into per-scenario seeds with the generator's own
//! SplitMix64 — so `--seed 7` names the same campaign everywhere,
//! `GALIOT_TEST_SEED=…` sweeps it wholesale, and any single scenario
//! replays from its printed seed via `--replay-seed` without rerunning
//! the campaign around it.
//!
//! Failures are minimized by [`crate::shrink()`] and rendered as
//! self-contained repro bundles: seed, minimized scenario JSON, the
//! exact environment knobs, and the replay command line.

use std::sync::Arc;

use crate::gen::generate;
use crate::oracle::{build, guarded_check, Oracle};
use crate::rng::SplitMix64;
use crate::scenario::{EnvKnobs, Scenario};
use crate::shrink::shrink;
use crate::spec::CampaignSpec;

/// What to run.
#[derive(Clone)]
pub struct CampaignOptions {
    /// Raw campaign seed (pre-`GALIOT_TEST_SEED` fold), from `--seed`.
    pub seed: u64,
    /// Scenarios to sample.
    pub count: usize,
    /// Generator bounds.
    pub spec: CampaignSpec,
    /// Oracles to run (a subset of the registry, or the dev oracle).
    pub oracles: Vec<Oracle>,
    /// Whether to minimize failures.
    pub shrink: bool,
    /// Fenced oracle checks the shrinker may spend per failure.
    pub shrink_budget: usize,
    /// Replay exactly one scenario seed (already folded — the value a
    /// repro bundle printed) instead of sampling `count` fresh ones.
    pub replay_seed: Option<u64>,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seed: 0,
            count: 20,
            spec: CampaignSpec::default(),
            oracles: crate::oracle::registry(),
            shrink: true,
            shrink_budget: 60,
            replay_seed: None,
            quiet: false,
        }
    }
}

/// Outcome of one oracle on one scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// The invariant held.
    Pass,
    /// The invariant failed (see the failure record).
    Fail,
    /// The oracle does not apply to this scenario's shape.
    Skip,
}

impl Status {
    fn name(&self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Fail => "fail",
            Status::Skip => "skip",
        }
    }
}

/// One oracle's outcome on one scenario.
#[derive(Clone, Debug)]
pub struct OracleOutcome {
    /// Oracle name.
    pub oracle: &'static str,
    /// Pass / fail / skip.
    pub status: Status,
    /// The failure message, when failing.
    pub error: Option<String>,
}

/// One scenario's results.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Position in the campaign stream.
    pub index: usize,
    /// The scenario's own seed (replayable via `--replay-seed`).
    pub seed: u64,
    /// Per-oracle outcomes, in registry order.
    pub outcomes: Vec<OracleOutcome>,
}

/// A minimized failure with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Campaign stream position.
    pub index: usize,
    /// The failing oracle.
    pub oracle: &'static str,
    /// Its error message.
    pub error: String,
    /// The scenario as generated.
    pub scenario: Scenario,
    /// The shrunk scenario (equals `scenario` when shrinking is off or
    /// found nothing smaller).
    pub minimized: Scenario,
    /// Fenced checks the shrinker spent.
    pub shrink_attempts: usize,
}

/// The full campaign record.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Raw seed from the command line.
    pub cli_seed: u64,
    /// The folded campaign seed actually used.
    pub campaign_seed: u64,
    /// The generator bounds.
    pub spec: CampaignSpec,
    /// Environment knobs captured at run time.
    pub env: EnvKnobs,
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioResult>,
    /// Minimized failures, in discovery order.
    pub failures: Vec<Failure>,
}

impl CampaignReport {
    /// True when every applicable oracle passed on every scenario.
    pub fn all_green(&self) -> bool {
        self.failures.is_empty()
    }

    /// Counts of (pass, fail, skip) cells.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for s in &self.scenarios {
            for o in &s.outcomes {
                match o.status {
                    Status::Pass => t.0 += 1,
                    Status::Fail => t.1 += 1,
                    Status::Skip => t.2 += 1,
                }
            }
        }
        t
    }

    /// The self-contained repro bundle for one failure. Prints the
    /// scenario seed, both scenario JSONs, all four environment
    /// knobs, and the exact replay command — a failure must replay
    /// from this text alone.
    pub fn render_repro(&self, f: &Failure) -> String {
        format!(
            "=== galiot-sim repro ===\n\
             campaign_seed: {} (cli --seed {})\n\
             scenario_index: {}\n\
             scenario_seed: {}\n\
             failing_oracle: {}\n\
             error: {}\n\
             env:\n{}\n\
             spec: {}\n\
             replay: sim_campaign --replay-seed {} --spec \"{}\" --oracle {}\n\
             original_scenario: {}\n\
             minimized_scenario: {}\n\
             (shrink spent {} checks)\n",
            self.campaign_seed,
            self.cli_seed,
            f.index,
            f.scenario.seed,
            f.oracle,
            f.error,
            self.env.render(),
            self.spec.render(),
            f.scenario.seed,
            self.spec.render(),
            f.oracle,
            f.scenario.to_json(),
            f.minimized.to_json(),
            f.shrink_attempts,
        )
    }

    /// The whole report as JSON (for the CI artifact).
    pub fn to_json(&self) -> String {
        let mut scenarios = String::new();
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                scenarios.push(',');
            }
            let mut outcomes = String::new();
            for (j, o) in s.outcomes.iter().enumerate() {
                if j > 0 {
                    outcomes.push(',');
                }
                outcomes.push_str(&format!(
                    "{{\"oracle\":\"{}\",\"status\":\"{}\"{}}}",
                    o.oracle,
                    o.status.name(),
                    match &o.error {
                        Some(e) => format!(",\"error\":\"{}\"", json_escape(e)),
                        None => String::new(),
                    }
                ));
            }
            scenarios.push_str(&format!(
                "{{\"index\":{},\"seed\":{},\"oracles\":[{}]}}",
                s.index, s.seed, outcomes
            ));
        }
        let mut failures = String::new();
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                failures.push(',');
            }
            failures.push_str(&format!(
                "{{\"index\":{},\"oracle\":\"{}\",\"error\":\"{}\",\
                 \"scenario\":{},\"minimized\":{},\"shrink_attempts\":{}}}",
                f.index,
                f.oracle,
                json_escape(&f.error),
                f.scenario.to_json(),
                f.minimized.to_json(),
                f.shrink_attempts
            ));
        }
        let (pass, fail, skip) = self.tally();
        format!(
            "{{\"campaign_seed\":{},\"cli_seed\":{},\"spec\":\"{}\",\
             \"env\":{{\"GALIOT_TEST_SEED\":{},\"GALIOT_FAULT_SEED\":{},\
             \"GALIOT_DECODE_FAULTS\":{},\"GALIOT_DSP_BACKEND\":{}}},\
             \"tally\":{{\"pass\":{pass},\"fail\":{fail},\"skip\":{skip}}},\
             \"scenarios\":[{}],\"failures\":[{}]}}",
            self.campaign_seed,
            self.cli_seed,
            json_escape(&self.spec.render()),
            json_opt(&self.env.test_seed),
            json_opt(&self.env.fault_seed),
            json_opt(&self.env.decode_fault_seed),
            json_opt(&self.env.dsp_backend),
            scenarios,
            failures
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_opt(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".into(),
    }
}

/// Runs a campaign.
pub fn run_campaign(opts: &CampaignOptions) -> CampaignReport {
    let campaign_seed = galiot_channel::scenario_seed(opts.seed);
    let mut stream = SplitMix64::new(campaign_seed);
    let seeds: Vec<u64> = match opts.replay_seed {
        // A replayed seed is used verbatim: it is the already-folded
        // value a repro bundle printed.
        Some(s) => vec![s],
        None => (0..opts.count).map(|_| stream.next_u64()).collect(),
    };

    let mut report = CampaignReport {
        cli_seed: opts.seed,
        campaign_seed,
        spec: opts.spec.clone(),
        env: EnvKnobs::capture(),
        scenarios: Vec::new(),
        failures: Vec::new(),
    };

    for (index, &seed) in seeds.iter().enumerate() {
        let scenario = generate(&opts.spec, seed);
        debug_assert_eq!(scenario.seed, seed);
        let built = Arc::new(build(&scenario));
        let mut outcomes = Vec::new();
        for oracle in &opts.oracles {
            if !(oracle.applies)(&scenario) {
                outcomes.push(OracleOutcome {
                    oracle: oracle.name,
                    status: Status::Skip,
                    error: None,
                });
                continue;
            }
            match guarded_check(oracle, &scenario, &built) {
                Ok(()) => outcomes.push(OracleOutcome {
                    oracle: oracle.name,
                    status: Status::Pass,
                    error: None,
                }),
                Err(error) => {
                    if !opts.quiet {
                        eprintln!(
                            "sim_campaign: scenario {index} (seed {seed}): {} FAILED: {error}",
                            oracle.name
                        );
                    }
                    let (minimized, shrink_attempts) = if opts.shrink {
                        let o = shrink(&scenario, oracle, opts.shrink_budget);
                        (o.scenario, o.attempts)
                    } else {
                        (scenario.clone(), 0)
                    };
                    report.failures.push(Failure {
                        index,
                        oracle: oracle.name,
                        error: error.clone(),
                        scenario: scenario.clone(),
                        minimized,
                        shrink_attempts,
                    });
                    outcomes.push(OracleOutcome {
                        oracle: oracle.name,
                        status: Status::Fail,
                        error: Some(error),
                    });
                }
            }
        }
        if !opts.quiet {
            let line: Vec<String> = outcomes
                .iter()
                .map(|o| format!("{}:{}", o.oracle, o.status.name()))
                .collect();
            eprintln!(
                "sim_campaign: scenario {index} seed {seed}: {}",
                line.join(" ")
            );
        }
        report.scenarios.push(ScenarioResult {
            index,
            seed,
            outcomes,
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> CampaignOptions {
        CampaignOptions {
            seed: 11,
            count: 2,
            spec: CampaignSpec::smoke(),
            quiet: true,
            ..Default::default()
        }
    }

    #[test]
    fn seed_stream_is_stable() {
        let opts = tiny_opts();
        let a = run_campaign(&opts);
        let b = run_campaign(&opts);
        let sa: Vec<u64> = a.scenarios.iter().map(|s| s.seed).collect();
        let sb: Vec<u64> = b.scenarios.iter().map(|s| s.seed).collect();
        assert_eq!(sa, sb);
        assert_eq!(a.scenarios.len(), 2);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let mut opts = tiny_opts();
        opts.count = 1;
        opts.oracles = vec![crate::oracle::broken_dev()];
        opts.shrink = false;
        let report = run_campaign(&opts);
        let json = report.to_json();
        for key in [
            "\"campaign_seed\":",
            "\"GALIOT_TEST_SEED\":",
            "\"GALIOT_FAULT_SEED\":",
            "\"GALIOT_DECODE_FAULTS\":",
            "\"GALIOT_DSP_BACKEND\":",
            "\"tally\":",
            "\"scenarios\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escape_handles_quotes_and_newlines() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
