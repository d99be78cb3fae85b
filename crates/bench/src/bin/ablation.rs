//! Ablation of ASAP's two design ingredients:
//!
//! * **without \[AP1\]** (no IVT guard, IVT not attested): an adversary
//!   re-routes a vector between execution and attestation and the proof
//!   *stays valid* — demonstrating why LTL 4 + IVT attestation are
//!   necessary once LTL 3 is removed;
//! * **without \[AP2\]** (ISR linked outside `ER`): the authorized-looking
//!   interrupt drags the PC out of `ER` and the proof dies — showing that
//!   interrupt tolerance is *only* sound for ISRs inside `ER`.
//!
//! Run: `cargo run -p asap-bench --release --bin ablation`

use apex_pox::monitor::{exec_kernel, ExecState};
use asap::device::{Device, PoxMode};
use asap::monitor::ivt_kernel;
use asap::programs;
use openmsp430::Wires;

/// Replays an "honest run, then IVT rewrite" wire history against two
/// hardware variants: the full ASAP monitor (exec kernel + IVT guard)
/// and the ablated one (exec kernel alone, LTL 3 removed, no guard).
fn ablate_ap1() {
    // Wire history: enter at ERmin, run, take an in-ER interrupt, exit
    // legally, then the attacker writes the IVT.
    let history = [
        Wires::PC_IN_ER | Wires::PC_AT_ERMIN,
        Wires::PC_IN_ER | Wires::IRQ,
        Wires::PC_IN_ER | Wires::PC_AT_EREXIT,
        Wires::default(),
        // The attack: CPU write into the IVT.
        Wires::WEN_IVT,
    ];

    let mut full_exec = ExecState::default();
    let mut full_ivt = false;
    let mut ablated = ExecState::default();
    for w in history {
        full_exec = exec_kernel(full_exec, w, false);
        full_ivt = ivt_kernel(full_ivt, w);
        ablated = exec_kernel(ablated, w, false);
    }
    let full = full_exec.exec && full_ivt;
    println!("  full ASAP   : EXEC = {} (attack detected)", full as u8);
    println!(
        "  without AP1 : EXEC = {} (attack WOULD SUCCEED)",
        ablated.exec as u8
    );
    assert!(!full && ablated.exec, "ablation must flip the outcome");
}

/// \[AP2\] ablation at system level: identical programs, ISR inside vs.
/// outside `ER`, on real devices.
fn ablate_ap2() {
    for (what, image) in [
        (
            "ISR inside ER ([AP2] respected)",
            programs::fig4_authorized().unwrap(),
        ),
        (
            "ISR outside ER ([AP2] ablated) ",
            programs::fig4_unauthorized().unwrap(),
        ),
    ] {
        let mut d = Device::builder(&image)
            .mode(PoxMode::Asap)
            .key(b"ablate")
            .build()
            .unwrap();
        d.run_steps(6);
        d.set_button(0, true);
        d.run_until_pc(programs::done_pc(), 10_000);
        println!("  {what}: EXEC = {}", d.exec() as u8);
    }
}

fn main() {
    println!("=== Ablation 1: remove [AP1] (IVT guard) ===");
    ablate_ap1();
    println!("\n=== Ablation 2: violate [AP2] (ISR placement) ===");
    ablate_ap2();
    println!("\nboth ingredients are load-bearing: dropping either breaks the design ✔");
}
