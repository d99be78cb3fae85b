//! # openmsp430 — an OpenMSP430-class MCU simulator
//!
//! Instruction-set and signal-level simulator for the 16-bit MSP430
//! architecture, the device class targeted by the VRASED, APEX and ASAP
//! security architectures (low-end, single-core, bare-metal, 64 KiB
//! address space, no MMU).
//!
//! The crate provides:
//!
//! * the full MSP430 instruction set ([`isa`], [`decode`], [`encode`],
//!   [`exec`]) with flag semantics and deterministic cycle counts;
//! * a CPU core ([`cpu`]) with interrupt entry/`RETI`, low-power modes
//!   and faults;
//! * a sparse paged memory plus bus abstraction ([`mem`], [`bus`]),
//!   with per-page write generations backing the predecoded-instruction
//!   cache's consistency check;
//! * an MCU top level ([`mcu`]) integrating peripherals ([`periph`]) and
//!   DMA, and emitting one [`signals::Signals`] bundle per executed step
//!   — either freshly allocated ([`mcu::Mcu::step`]) or packed into a
//!   caller-owned reusable buffer ([`mcu::Mcu::step_into`], the
//!   zero-allocation fast path fed by the generation-checked predecode
//!   cache);
//! * a superblock executor ([`superblock`], [`mcu::Mcu::run_superblock`])
//!   that runs cached straight-line traces and reports each step as a
//!   [`superblock::WireSummary`]: its PC and a [`superblock::Wires`]
//!   bitset of the monitor wires, folded from the bus accesses by the
//!   same [`superblock::WireSummary::fold`] that extracts them from full
//!   [`signals::Signals`], which come only from the per-step pipeline;
//! * the static monitor composition [`hwmod::Compose`] — the `HW-Mod`
//!   attachment of the paper's Fig. 2.
//!
//! # Quick start
//!
//! ```
//! use openmsp430::layout::MemLayout;
//! use openmsp430::mcu::Mcu;
//!
//! let mut mcu = Mcu::new(MemLayout::default());
//! // mov #42, &0x0200 ; jmp $ (hand-encoded)
//! for (i, w) in [0x40B2u16, 42, 0x0200, 0x3FFF].iter().enumerate() {
//!     mcu.mem.write_word(0xE000 + 2 * i as u16, *w);
//! }
//! mcu.mem.write_word(0xFFFE, 0xE000);
//! mcu.reset();
//! let signals = mcu.step();
//! assert_eq!(mcu.mem.read_word(0x0200), 42);
//! assert_eq!(signals.pc, 0xE000);
//! ```

pub mod bus;
pub mod cpu;
pub mod decode;
pub mod encode;
pub mod exec;
pub mod hwmod;
pub mod isa;
pub mod layout;
pub mod mcu;
pub mod mem;
mod pages;
mod pctable;
pub mod periph;
mod predecode;
pub mod regs;
pub mod signals;
pub mod superblock;

pub use bus::{Bus, Master, MemAccess};
pub use cpu::{Cpu, CpuFault, StepOut, IVT_BASE, IVT_VECTORS, RESET_VECTOR};
pub use hwmod::Compose;
pub use isa::{Cond, Instr, OneOp, Operand, TwoOp};
pub use layout::MemLayout;
pub use mcu::{Mcu, NMI_VECTOR};
pub use mem::{MemRegion, Memory};
pub use periph::{DmaOp, Peripheral};
pub use regs::{sr_bits, Reg, RegFile};
pub use signals::Signals;
pub use superblock::{CacheStats, SbConfig, SbExit, StepCtl, WireSummary, Wires};
