//! Cross-technology collision decoding — the paper's headline.
//!
//! A LoRa frame and an XBee frame collide with full time-frequency
//! overlap at comparable power. Strict SIC (the strawman) stalls:
//! the stronger XBee frame cannot be decoded under the LoRa chirps, so
//! nothing can be subtracted. GalioT's Algorithm 1 applies KILL-CSS to
//! remove the LoRa signal *without decoding it*, recovers XBee, cancels
//! XBee's reconstructed waveform, and then decodes LoRa cleanly.
//!
//! ```sh
//! cargo run --release --example collision_decoding
//! ```

use galiot::cloud::{sic_decode, CloudParams};
use galiot::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let registry = Registry::prototype();
    let lora = registry.get(TechId::LoRa).unwrap().clone();
    let xbee = registry.get(TechId::XBee).unwrap().clone();

    let lora_payload = b"lora under collision".to_vec();
    let xbee_payload = b"xbee under collision".to_vec();

    // Full overlap: XBee starts 30 ms into the ~54 ms LoRa frame and is
    // 1 dB stronger — comparable power, the regime where SIC fails.
    let events = vec![
        TxEvent::new(lora, lora_payload.clone(), 0),
        TxEvent::new(xbee, xbee_payload.clone(), 30_000).with_power_db(1.0),
    ];
    let noise = snr_to_noise_power(25.0, 0.0);
    let capture = compose(&events, 400_000, FS, noise, &mut rng);
    assert!(capture.has_collision());

    println!("collision: LoRa (CSS) x XBee (GFSK), full overlap, ~equal power\n");

    // Strawman: strict SIC.
    let sic = sic_decode(&capture.samples, FS, &registry, &CloudParams::default());
    println!("strict SIC recovered {} frame(s):", sic.frames.len());
    for f in &sic.frames {
        println!("  {}: {:?}", f.tech, String::from_utf8_lossy(&f.payload));
    }

    // GalioT: Algorithm 1 with kill filters.
    let decoder = CloudDecoder::new(registry);
    let result = decoder.decode(&capture.samples, FS);
    println!(
        "\nGalioT CloudDecode recovered {} frame(s) ({} kill-filter application(s)):",
        result.frames.len(),
        result.kills,
    );
    for (f, how) in &result.frames {
        let how = match how {
            Recovery::Direct => "direct".to_string(),
            Recovery::AfterKill { victim } => format!("after KILL of {victim}"),
        };
        println!(
            "  {}: {:?}  [{how}]",
            f.tech,
            String::from_utf8_lossy(&f.payload)
        );
    }

    let got: Vec<&Vec<u8>> = result.frames.iter().map(|(f, _)| &f.payload).collect();
    assert!(got.contains(&&lora_payload) && got.contains(&&xbee_payload));
    assert!(result.frames.len() > sic.frames.len());
    println!("\nGalioT decoded the full collision where SIC stalled — demo OK");
}
