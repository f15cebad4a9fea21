//! `galiot` — command-line front end to the GalioT system.
//!
//! ```text
//! galiot simulate [--duration S] [--rate HZ] [--snr DB] [--seed N]
//!     run Poisson IoT traffic through the full pipeline, print frames
//! galiot collide [--snr DB] [--seed N]
//!     compose one comparable-power collision, compare SIC vs GalioT
//! galiot registry
//!     list the technologies and their parameters
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! admits no CLI crate); everything else is the library.

use galiot::channel::{compose, forced_collision, generate, snr_to_noise_power, TrafficParams};
use galiot::cloud::{sic_decode, CloudParams};
use galiot::phy::registry::summarize;
use galiot::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;

struct Args {
    duration_s: f64,
    rate_hz: f64,
    snr_db: f32,
    seed: u64,
}

fn parse_flags(argv: &[String]) -> Args {
    let mut args = Args {
        duration_s: 1.0,
        rate_hz: 2.0,
        snr_db: 15.0,
        seed: 1,
    };
    let mut i = 0;
    while i < argv.len() {
        let take = |i: usize| -> Option<&String> { argv.get(i + 1) };
        match argv[i].as_str() {
            "--duration" => {
                if let Some(v) = take(i).and_then(|v| v.parse().ok()) {
                    args.duration_s = v;
                }
                i += 2;
            }
            "--rate" => {
                if let Some(v) = take(i).and_then(|v| v.parse().ok()) {
                    args.rate_hz = v;
                }
                i += 2;
            }
            "--snr" => {
                if let Some(v) = take(i).and_then(|v| v.parse().ok()) {
                    args.snr_db = v;
                }
                i += 2;
            }
            "--seed" => {
                if let Some(v) = take(i).and_then(|v| v.parse().ok()) {
                    args.seed = v;
                }
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown flag {other}");
                i += 1;
            }
        }
    }
    args
}

fn cmd_registry() {
    println!("technology     class  bitrate_bps  preamble");
    for (id, class, bitrate, preamble) in summarize(&Registry::all()) {
        println!(
            "{:<14} {:<6} {:>11.0}  {}",
            id.to_string(),
            class.to_string(),
            bitrate,
            preamble
        );
    }
}

fn cmd_simulate(a: Args) {
    let mut rng = StdRng::seed_from_u64(a.seed);
    let registry = Registry::prototype();
    let params = TrafficParams {
        rate_hz: a.rate_hz,
        ..Default::default()
    };
    let events = generate(&registry, &params, a.duration_s, FS, &mut rng);
    let np = snr_to_noise_power(a.snr_db, 0.0);
    let total = (a.duration_s * FS) as usize;
    let cap = compose(&events, total, FS, np, &mut rng);
    eprintln!(
        "simulating {:.1} s of traffic: {} transmissions, collisions: {}",
        a.duration_s,
        cap.truth.len(),
        cap.has_collision(),
    );
    let system = Galiot::new(GaliotConfig::prototype(), registry);
    let report = system.process_capture(&cap.samples);
    println!("tech\tstart\tbytes\ttier\tcorrect");
    let mut correct = 0usize;
    for f in &report.frames {
        let ok = cap
            .truth
            .iter()
            .any(|t| t.tech == f.frame.tech && t.payload == f.frame.payload);
        correct += ok as usize;
        println!(
            "{}\t{}\t{}\t{}\t{}",
            f.frame.tech,
            f.frame.start,
            f.frame.payload.len(),
            if f.at_edge { "edge" } else { "cloud" },
            ok,
        );
    }
    let m = &report.metrics;
    eprintln!(
        "recovered {}/{} frames correctly; {} detections, shipped {:.1}% of the capture",
        correct,
        cap.truth.len(),
        m.detections,
        100.0 * m.shipped_fraction(8),
    );
}

fn cmd_collide(a: Args) {
    let mut rng = StdRng::seed_from_u64(a.seed);
    let registry = Registry::prototype();
    let events = forced_collision(&registry, 10, &[0.0, 1.0], 20_000, 10_000, &mut rng);
    let np = snr_to_noise_power(a.snr_db, 0.0);
    let total = registry.max_frame_samples_for(FS, 10) + 60_000;
    let cap = compose(&events, total, FS, np, &mut rng);
    eprintln!(
        "collision of {} technologies at {} dB SNR",
        cap.truth.len(),
        a.snr_db
    );

    let sic = sic_decode(&cap.samples, FS, &registry, &CloudParams::default());
    println!("strict SIC recovered {} frame(s)", sic.frames.len());
    for f in &sic.frames {
        println!("  {}: {} bytes", f.tech, f.payload.len());
    }
    let gal = CloudDecoder::new(registry).decode(&cap.samples, FS);
    println!(
        "GalioT recovered {} frame(s), {} kill(s)",
        gal.frames.len(),
        gal.kills
    );
    for (f, how) in &gal.frames {
        let how = match how {
            Recovery::Direct => "direct".to_string(),
            Recovery::AfterKill { victim } => format!("after kill of {victim}"),
        };
        println!("  {}: {} bytes [{how}]", f.tech, f.payload.len());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("registry") => cmd_registry(),
        Some("simulate") => cmd_simulate(parse_flags(&argv[1..])),
        Some("collide") => cmd_collide(parse_flags(&argv[1..])),
        _ => {
            eprintln!("usage: galiot <registry|simulate|collide> [flags]");
            eprintln!("  simulate  --duration S --rate HZ --snr DB --seed N");
            eprintln!("  collide   --snr DB --seed N");
            std::process::exit(2);
        }
    }
}
