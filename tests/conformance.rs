//! Conformance bridges between the three faces of each monitor:
//!
//! 1. **runtime vs spec** — every simulation run's proposition trace is
//!    checked against the monitor LTL specifications (finite-trace
//!    semantics): the "RTL" obeys its verified properties in vivo;
//! 2. **netlist vs kernel** — the rtl-synth gate-level ASAP design and
//!    the model-checked Rust kernel compute the same `EXEC` on random
//!    stimulus.

use asap::device::{Device, PoxMode};
use asap::monitor::{ivt_kernel, IvtIn};
use asap::programs;
use ltl_mc::formula::Ltl;
use proptest::prelude::*;
use std::collections::HashMap;
use vrased::props::names;

fn p(name: &str) -> Ltl {
    Ltl::prop(name)
}

/// Trace-level renditions of the key monitor properties. (The `X`-free
/// safety shapes evaluated over recorded finite traces.)
fn trace_specs(mode: PoxMode) -> Vec<(&'static str, Ltl)> {
    let mut specs = vec![
        (
            "LTL4/AP1: ivt write => !exec",
            p(names::WEN_IVT)
                .or(p(names::DMA_IVT))
                .implies(p(names::EXEC).not())
                .globally(),
        ),
        (
            "ER immutability: er write => !exec",
            p(names::WEN_ER)
                .or(p(names::DMA_ER))
                .implies(p(names::EXEC).not())
                .globally(),
        ),
        (
            "LTL1: leaving ER not at exit kills exec",
            p(names::PC_IN_ER)
                .and(p(names::PC_IN_ER).not().next())
                .implies(p(names::PC_AT_EREXIT).or(p(names::EXEC).not().next()))
                .globally(),
        ),
        (
            "LTL2: entering ER not at ERmin kills exec",
            p(names::PC_IN_ER)
                .not()
                .and(p(names::PC_IN_ER).next())
                .implies(p(names::PC_AT_ERMIN).next().or(p(names::EXEC).not().next()))
                .globally(),
        ),
        (
            "key AC: key read outside SW-Att => reset",
            p(names::REN_KEY)
                .and(p(names::PC_IN_SWATT).not())
                .implies(p(names::RESET))
                .globally(),
        ),
    ];
    if mode == PoxMode::Apex {
        specs.push((
            "LTL3: irq during ER kills exec",
            p(names::PC_IN_ER)
                .and(p(names::IRQ))
                .implies(p(names::EXEC).not())
                .globally(),
        ));
    }
    specs
}

fn run_and_check(image: &msp430_tools::link::Image, mode: PoxMode, action: impl Fn(&mut Device)) {
    let mut device = Device::builder(image)
        .mode(mode)
        .key(b"conf-key")
        .record_trace(true)
        .build()
        .unwrap();
    device.run_steps(6);
    action(&mut device);
    device.run_until_pc(programs::done_pc(), 10_000);
    // Attack steps after completion, then attestation, all recorded.
    device.attacker_cpu_write(0xFFE4, 0xBEEF);
    device.run_steps(3);
    let trace = device.trace().unwrap().clone();
    for (name, spec) in trace_specs(mode) {
        if let Some(at) = trace.first_violation(&spec) {
            panic!("{mode:?}: `{name}` violated at trace position {at}");
        }
    }
}

#[test]
fn asap_traces_conform_to_specs() {
    let image = programs::fig4_authorized().unwrap();
    run_and_check(&image, PoxMode::Asap, |d| d.set_button(0, true));
}

#[test]
fn apex_traces_conform_to_specs() {
    let image = programs::fig4_authorized().unwrap();
    run_and_check(&image, PoxMode::Apex, |d| d.set_button(0, true));
}

#[test]
fn unauthorized_isr_trace_conforms() {
    let image = programs::fig4_unauthorized().unwrap();
    run_and_check(&image, PoxMode::Asap, |d| d.set_button(0, true));
}

#[test]
fn pump_trace_conforms() {
    let image = programs::syringe_pump_interrupt(1_000).unwrap();
    run_and_check(&image, PoxMode::Asap, |_| {});
}

// ---------------------------------------------------------------------
// Wire-format golden vectors
// ---------------------------------------------------------------------

/// Checked-in canonical encodings of the fleet envelope frame. These
/// pin the byte layout: any codec change that silently alters the wire
/// format fails here before it can strand deployed provers.
mod envelope_golden {
    use apex_pox::protocol::{PoxRequest, PoxResponse};
    use apex_pox::wire::Envelope;
    use openmsp430::mem::MemRegion;
    use vrased::protocol::Challenge;

    /// `Envelope(device 0x0001000200030004, PoxRequest{chal(7), ER, OR})`.
    const REQUEST_HEX: &str = "505850310304000300020001001d000000505850310176108f84396dc2d72ce275fdb0e0ef3700e0ffe100033f03";

    /// Same envelope around an ASAP response (IVT report present).
    const ASAP_RESPONSE_HEX: &str = "505850310304000300020001005500000050585031020106000000646f73653d320120000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1fabababababababababababababababababababababababababababababababab";

    /// Same envelope around an APEX response (no IVT report).
    const APEX_RESPONSE_HEX: &str = "505850310304000300020001003100000050585031020106000000646f73653d3200abababababababababababababababababababababababababababababababab";

    const DEVICE_ID: u64 = 0x0001_0002_0003_0004;

    fn request() -> PoxRequest {
        PoxRequest {
            chal: Challenge::from_counter(7),
            er: MemRegion::new(0xE000, 0xE1FF),
            or: MemRegion::new(0x0300, 0x033F),
        }
    }

    fn response(ivt: Option<Vec<u8>>) -> PoxResponse {
        PoxResponse {
            exec: true,
            output: b"dose=2".to_vec(),
            ivt,
            mac: [0xAB; 32],
        }
    }

    fn check(fixture_hex: &str, actual: &Envelope) {
        let fixture: String = fixture_hex.split_whitespace().collect();
        assert_eq!(
            pox_crypto::hex::encode(&actual.to_bytes()),
            fixture,
            "wire format drifted from the checked-in vector"
        );
        let decoded = Envelope::from_bytes(&pox_crypto::hex::decode(&fixture).unwrap()).unwrap();
        assert_eq!(&decoded, actual, "fixture no longer decodes to the value");
    }

    #[test]
    fn enveloped_request_matches_golden_vector() {
        let env = Envelope::wrap(DEVICE_ID, request().to_bytes());
        check(REQUEST_HEX, &env);
        assert_eq!(
            PoxRequest::from_bytes(&env.payload).unwrap(),
            request(),
            "payload is the canonical bare-request encoding"
        );
    }

    #[test]
    fn enveloped_asap_response_matches_golden_vector() {
        let ivt: Vec<u8> = (0u8..32).collect();
        check(
            ASAP_RESPONSE_HEX,
            &Envelope::wrap(DEVICE_ID, response(Some(ivt)).to_bytes()),
        );
    }

    #[test]
    fn enveloped_apex_response_matches_golden_vector() {
        check(
            APEX_RESPONSE_HEX,
            &Envelope::wrap(DEVICE_ID, response(None).to_bytes()),
        );
    }

    // -----------------------------------------------------------------
    // Stream framing: `len (u32 LE) ‖ envelope`, as spoken by the
    // fleet runtime over TCP/UDS. The prefix is the envelope's
    // byte length, so each golden stream vector is the length prefix
    // followed by the corresponding envelope vector.
    // -----------------------------------------------------------------

    use apex_pox::wire::{frame_stream, StreamDeframer, WireError, MAX_FRAME_LEN};

    /// `frame_stream` around the golden request envelope (46 = 0x2e
    /// envelope bytes).
    const STREAM_REQUEST_PREFIX_HEX: &str = "2e000000";

    /// `frame_stream` around the golden ASAP response envelope
    /// (102 = 0x66 envelope bytes).
    const STREAM_ASAP_RESPONSE_PREFIX_HEX: &str = "66000000";

    /// `frame_stream` around the golden APEX response envelope
    /// (66 = 0x42 envelope bytes).
    const STREAM_APEX_RESPONSE_PREFIX_HEX: &str = "42000000";

    fn check_stream(prefix_hex: &str, envelope_hex: &str, envelope: &Envelope) {
        let fixture: String = format!("{prefix_hex}{envelope_hex}")
            .split_whitespace()
            .collect();
        assert_eq!(
            pox_crypto::hex::encode(&frame_stream(&envelope.to_bytes())),
            fixture,
            "stream framing drifted from the checked-in vector"
        );
        // The fixture deframes back to exactly one envelope frame.
        let mut deframer = StreamDeframer::new();
        deframer.extend(&pox_crypto::hex::decode(&fixture).unwrap());
        let frame = deframer.next_frame().unwrap().expect("one whole frame");
        assert_eq!(&Envelope::from_bytes(&frame).unwrap(), envelope);
        assert_eq!(deframer.next_frame(), Ok(None));
        assert_eq!(deframer.pending(), 0, "nothing left over");
    }

    #[test]
    fn stream_framed_request_matches_golden_vector() {
        check_stream(
            STREAM_REQUEST_PREFIX_HEX,
            REQUEST_HEX,
            &Envelope::wrap(DEVICE_ID, request().to_bytes()),
        );
    }

    #[test]
    fn stream_framed_asap_response_matches_golden_vector() {
        let ivt: Vec<u8> = (0u8..32).collect();
        check_stream(
            STREAM_ASAP_RESPONSE_PREFIX_HEX,
            ASAP_RESPONSE_HEX,
            &Envelope::wrap(DEVICE_ID, response(Some(ivt)).to_bytes()),
        );
    }

    #[test]
    fn stream_framed_apex_response_matches_golden_vector() {
        check_stream(
            STREAM_APEX_RESPONSE_PREFIX_HEX,
            APEX_RESPONSE_HEX,
            &Envelope::wrap(DEVICE_ID, response(None).to_bytes()),
        );
    }

    #[test]
    fn truncated_stream_frame_is_withheld_not_delivered() {
        let framed = frame_stream(&Envelope::wrap(DEVICE_ID, request().to_bytes()).to_bytes());
        // Every strict prefix: the deframer must neither deliver a
        // partial frame nor error — the bytes stay buffered, and the
        // driver sees the truncation as EOF with `pending() > 0`.
        for n in 0..framed.len() {
            let mut deframer = StreamDeframer::new();
            deframer.extend(&framed[..n]);
            assert_eq!(deframer.next_frame(), Ok(None), "prefix {n}");
            assert_eq!(deframer.pending(), n);
        }
    }

    #[test]
    fn oversized_stream_frame_is_rejected() {
        // A length prefix over MAX_FRAME_LEN is a protocol violation:
        // the deframer rejects it without allocating, and the error is
        // sticky because the frame boundary is unrecoverable.
        let mut deframer = StreamDeframer::new();
        deframer.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let oversize = Err(WireError::Oversize {
            field: "stream frame",
            len: MAX_FRAME_LEN + 1,
        });
        assert_eq!(deframer.next_frame(), oversize);
        deframer.extend(&[0u8; 32]);
        assert_eq!(deframer.next_frame(), oversize, "the error is sticky");
    }
}

// ---------------------------------------------------------------------
// Netlist ⇔ kernel equivalence
// ---------------------------------------------------------------------

/// Drives the gate-level ASAP IVT-guard portion and the Rust kernel with
/// the same random input sequences; their `EXEC` contributions must
/// agree. (The full netlist also contains the exec-window logic, which
/// is exercised with quiescent inputs here; the guard bit is isolated by
/// keeping the window honest.)
#[test]
fn asap_netlist_ivt_guard_matches_kernel() {
    let nl = rtl_synth::designs::asap_design();
    let names = nl.reg_names();

    proptest!(ProptestConfig::with_cases(64), |(
        seq in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 1..30)
    )| {
        // Netlist state: set ERmin = 0x0010, ERmax = 0x0020.
        let mut state = vec![false; nl.reg_count()];
        for (i, name) in names.iter().enumerate() {
            if name == "ermin[4]" || name == "ermax[5]" {
                state[i] = true;
            }
        }
        let run_idx = names.iter().position(|n| n == "ivt_run").unwrap();
        let mut kernel_run = false;

        for (wen_ivt, dma_ivt, at_ermin) in seq {
            // pc: at ERmin (0x0010) or outside ER (0x0000).
            let pc: u16 = if at_ermin { 0x0010 } else { 0x0000 };
            // daddr inside the IVT iff wen_ivt; dma likewise.
            let daddr: u16 = if wen_ivt { 0xFFE4 } else { 0x0200 };
            let dmaaddr: u16 = if dma_ivt { 0xFFF0 } else { 0x0200 };
            let mut inputs = HashMap::new();
            for i in 0..16 {
                inputs.insert(format!("pc[{i}]"), pc >> i & 1 == 1);
                inputs.insert(format!("daddr[{i}]"), daddr >> i & 1 == 1);
                inputs.insert(format!("dmaaddr[{i}]"), dmaaddr >> i & 1 == 1);
            }
            inputs.insert("wen".into(), wen_ivt);
            inputs.insert("dmaen".into(), dma_ivt);
            inputs.insert("fault".into(), false);

            let (_, next) = nl.simulate(&inputs, &state);
            kernel_run = ivt_kernel(
                kernel_run,
                IvtIn { wen_ivt, dma_ivt, pc_at_ermin: at_ermin },
            );
            prop_assert_eq!(
                next[run_idx], kernel_run,
                "gate-level Fig.3 FSM diverged from the verified kernel"
            );
            state = next;
        }
    });
}
