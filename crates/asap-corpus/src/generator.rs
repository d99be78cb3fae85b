//! Randomized MSP430 program generator: seeded, deterministic,
//! valid-by-construction.
//!
//! Every generated program is a complete literate `.s.md` text — the
//! generator *dogfoods* the corpus pipeline rather than bypassing it —
//! with its expected verdict computed from the construction, never
//! observed from a run. Randomness is the workspace's xorshift64\*
//! stream ([`XorShift64`]): no wall clock, no global state,
//! byte-for-byte reproducible from `(seed, index)`.

use crate::manifest::Verdict;
use asap::PoxMode;
use asap_fleet::XorShift64;
use std::fmt::Write;

/// True one time in `one_in`.
fn chance(rng: &mut XorShift64, one_in: u64) -> bool {
    rng.below(one_in) == 0
}

/// The interrupt source a generated program may exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IsrKind {
    Button,
    Uart,
}

/// The attack tail appended after the honest window, when any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attack {
    /// Post-run CPU write into the IVT (\[AP1\]; ASAP only — APEX has
    /// no IVT guard, so there it would go unnoticed).
    IvtRewrite,
    /// Post-run CPU write into `ER`.
    ErPatch,
    /// Post-run CPU write into `OR` from untrusted code.
    OrForge,
}

/// One generated program: a complete `.s.md` text plus the verdict the
/// construction guarantees (also embedded in the text's front matter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedProgram {
    /// `gen-<seed>-<index>`.
    pub name: String,
    /// The literate source, ready for [`crate::corpus::load_str`].
    pub text: String,
    /// The verdict computed from the recipe.
    pub expect: Verdict,
}

/// Generates program `index` of the stream seeded with `seed`.
pub fn generate(seed: u64, index: u64) -> GeneratedProgram {
    let mut rng =
        XorShift64::new(seed ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let name = format!("gen-{seed:016x}-{index:04}");

    let mode = if chance(&mut rng, 4) {
        PoxMode::Apex
    } else {
        PoxMode::Asap
    };
    let isr = match rng.below(3) {
        0 => None,
        1 => Some(IsrKind::Button),
        _ => Some(IsrKind::Uart),
    };
    let attack = if chance(&mut rng, 3) {
        Some(match (mode, rng.below(3)) {
            // APEX has no [AP1] guard: an IVT poke would *pass* there,
            // so the apex stream only draws memory attacks.
            (PoxMode::Apex, r) => [Attack::ErPatch, Attack::OrForge][(r % 2) as usize],
            (PoxMode::Asap, 0) => Attack::IvtRewrite,
            (PoxMode::Asap, 1) => Attack::ErPatch,
            (PoxMode::Asap, _) => Attack::OrForge,
        })
    } else {
        None
    };
    let uart_byte = 1 + rng.below(0xFF) as u8;

    // The verdict falls out of the construction:
    //  * any attack tail trips a memory/IVT rule -> EXEC cleared;
    //  * an interrupt inside the window is fatal under APEX (LTL 3)
    //    and harmless under ASAP (the handler is linked in ER).
    let irq_fatal = mode == PoxMode::Apex && isr.is_some();
    let expect = if attack.is_some() || irq_fatal {
        Verdict::NotExecuted
    } else {
        Verdict::Verified
    };

    // --- front matter ---------------------------------------------------
    let mode_name = match mode {
        PoxMode::Asap => "asap",
        PoxMode::Apex => "apex",
    };
    let mut text = String::new();
    let _ = writeln!(text, "---");
    let _ = writeln!(text, "name: {name}");
    let _ = writeln!(text, "mode: {mode_name}");
    let _ = writeln!(text, "reset: main");
    match isr {
        Some(IsrKind::Button) => {
            let _ = writeln!(text, "isr: port1 g_isr");
            let _ = writeln!(text, "press-button: 0");
        }
        Some(IsrKind::Uart) => {
            let _ = writeln!(text, "isr: uart-rx g_isr");
            let _ = writeln!(text, "uart-rx: {uart_byte:#04x}");
        }
        None => {}
    }
    let _ = writeln!(text, "expect: {expect}");
    if expect == Verdict::NotExecuted {
        let monitor = match mode {
            PoxMode::Asap => "ASAP",
            PoxMode::Apex => "APEX",
        };
        let _ = writeln!(text, "expect-violation: {monitor}: EXEC cleared");
    }
    match attack {
        Some(Attack::IvtRewrite) => {
            let _ = writeln!(text, "attack: generated IVT poke after the window");
        }
        Some(Attack::ErPatch) => {
            let _ = writeln!(text, "attack: generated ER patch after the window");
        }
        Some(Attack::OrForge) => {
            let _ = writeln!(text, "attack: generated OR forge after the window");
        }
        None if irq_fatal => {
            let _ = writeln!(text, "attack: interrupt inside an APEX window");
        }
        None => {}
    }
    let _ = writeln!(text, "---");
    let _ = writeln!(text);
    let _ = writeln!(text, "# Generated workload `{name}`");
    let _ = writeln!(text);
    let _ = writeln!(
        text,
        "Seeded recipe: mode {mode_name}, {} interrupt source, {} attack tail.",
        match isr {
            Some(IsrKind::Button) => "button",
            Some(IsrKind::Uart) => "UART",
            None => "no",
        },
        if attack.is_some() { "an" } else { "no" },
    );
    let _ = writeln!(text);

    // --- assembly -------------------------------------------------------
    let _ = writeln!(text, "```asm");
    let _ = writeln!(text, "        .section exec.start");
    let _ = writeln!(text, "    startER:");
    let _ = writeln!(text, "        call #g_main");
    let _ = writeln!(text, "        br   #exitER");
    let _ = writeln!(text, "        .section exec.leave");
    let _ = writeln!(text, "    exitER:");
    let _ = writeln!(text, "        ret");
    let _ = writeln!(text, "        .section exec.body");
    let _ = writeln!(text, "    g_main:");
    match isr {
        Some(IsrKind::Button) => {
            let _ = writeln!(text, "        mov.b #0x01, &0x0025    ; P1IE");
            let _ = writeln!(text, "        eint");
        }
        Some(IsrKind::Uart) => {
            let _ = writeln!(text, "        mov #0x01, &0x0076      ; UART RXIE");
            let _ = writeln!(text, "        eint");
        }
        None => {}
    }

    let mut loops = 0u32;
    let mut emit_loop = |text: &mut String, rng: &mut XorShift64, min: u64| {
        let n = min + rng.below(30);
        let label = format!("g_loop{loops}");
        loops += 1;
        let _ = writeln!(text, "        mov #{n}, r4");
        let _ = writeln!(text, "    {label}:");
        let _ = writeln!(text, "        dec r4");
        let _ = writeln!(text, "        jnz {label}");
    };

    // With an interrupt source armed, spin long enough that the irq
    // demonstrably lands inside the window.
    if isr.is_some() {
        emit_loop(&mut text, &mut rng, 30);
    }
    let actions = 2 + rng.below(4);
    for _ in 0..actions {
        match rng.below(6) {
            0 => {
                let k = 1 + rng.below(0x7FFE);
                let r = 10 + rng.below(4);
                let _ = writeln!(text, "        mov #{k:#06x}, r{r}");
            }
            1 => {
                let k = 1 + rng.below(0x7FFE);
                let r = 10 + rng.below(4);
                let _ = writeln!(text, "        add #{k:#06x}, r{r}");
            }
            2 => {
                let k = 1 + rng.below(0x7FFE);
                let r = 10 + rng.below(4);
                let _ = writeln!(text, "        xor #{k:#06x}, r{r}");
            }
            3 => emit_loop(&mut text, &mut rng, 8),
            4 => {
                // A write into OR from inside the window: allowed.
                let k = 1 + rng.below(0xFFFE);
                let slot = 0x0302 + 2 * rng.below(8);
                let _ = writeln!(text, "        mov #{k:#06x}, &{slot:#06x}");
            }
            _ => {
                // Scratch RAM, clear of meta/OR regions.
                let k = 1 + rng.below(0xFFFE);
                let slot = 0x0400 + 2 * rng.below(16);
                let _ = writeln!(text, "        mov #{k:#06x}, &{slot:#06x}");
            }
        }
    }
    if isr.is_some() {
        let _ = writeln!(text, "        dint");
    }
    let _ = writeln!(text, "        mov r10, &0x0300        ; publish");
    let _ = writeln!(text, "        ret");
    match isr {
        Some(IsrKind::Button) => {
            let _ = writeln!(text, "    g_isr:");
            let _ = writeln!(text, "        inc r9");
            let _ = writeln!(text, "        reti");
        }
        Some(IsrKind::Uart) => {
            let _ = writeln!(text, "    g_isr:");
            let _ = writeln!(text, "        mov.b &0x0072, r9       ; drain RXBUF");
            let _ = writeln!(text, "        reti");
        }
        None => {}
    }
    let _ = writeln!(text, "        .section text");
    let _ = writeln!(text, "    main:");
    let _ = writeln!(text, "        call #startER");
    match attack {
        Some(Attack::IvtRewrite) => {
            let _ = writeln!(
                text,
                "        mov #0xDEAD, &0xFFE4    ; rewrite the PORT1 vector"
            );
        }
        Some(Attack::ErPatch) => {
            let _ = writeln!(text, "        mov #0x4343, &0xE004    ; patch a word of ER");
        }
        Some(Attack::OrForge) => {
            let _ = writeln!(
                text,
                "        mov #0xBEEF, &0x0300    ; forge the OR result"
            );
        }
        None => {}
    }
    let _ = writeln!(text, "    done:");
    let _ = writeln!(text, "        jmp done");
    let _ = writeln!(text, "```");

    GeneratedProgram { name, text, expect }
}

/// Generates `count` programs from one seed.
pub fn generate_batch(seed: u64, count: usize) -> Vec<GeneratedProgram> {
    (0..count as u64).map(|i| generate(seed, i)).collect()
}

/// A stable digest over a generated batch (name + text), hex-encoded —
/// the CI determinism check compares two independent invocations.
pub fn batch_digest(programs: &[GeneratedProgram]) -> String {
    let mut hasher = pox_crypto::Sha256::new();
    for p in programs {
        hasher.update(p.name.as_bytes());
        hasher.update(&[0]);
        hasher.update(p.text.as_bytes());
        hasher.update(&[0]);
    }
    pox_crypto::hex::encode(&hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_batch(0xA5A9_2022, 25);
        let b = generate_batch(0xA5A9_2022, 25);
        assert_eq!(a, b);
        assert_eq!(batch_digest(&a), batch_digest(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_batch(1, 10);
        let b = generate_batch(2, 10);
        assert_ne!(a, b);
        assert_ne!(batch_digest(&a), batch_digest(&b));
    }

    #[test]
    fn names_are_unique_within_a_batch() {
        let batch = generate_batch(7, 50);
        let mut names: Vec<&str> = batch.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), batch.len());
    }

    #[test]
    fn both_verdicts_appear_across_a_modest_batch() {
        let batch = generate_batch(3, 60);
        assert!(batch.iter().any(|p| p.expect == Verdict::Verified));
        assert!(batch.iter().any(|p| p.expect == Verdict::NotExecuted));
    }
}
