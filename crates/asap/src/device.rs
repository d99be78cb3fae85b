//! The prover device: MCU + peripherals + security monitors + SW-Att.
//!
//! This is the integration point of Fig. 2: the CPU core executes the
//! linked image while `HW-Mod` (VRASED guards + the APEX or ASAP `EXEC`
//! monitor) observes every step's wires. The device also implements the
//! SW-Att ROM trap: when asked to attest, it simulates the trusted ROM
//! routine — synthesizing the corresponding bus signals so the monitors
//! *observe* the attestation code running — and charges its cycle cost.

use crate::error::AsapError;
use crate::monitor::AsapMonitor;
use apex_pox::monitor::ApexMonitor;
use apex_pox::protocol::{pox_items, PoxRequest, PoxResponse};
use ltl_mc::trace::Trace;
use msp430_tools::link::Image;
use openmsp430::bus::{Master, MemAccess};
use openmsp430::hwmod::Compose;
use openmsp430::layout::MemLayout;
use openmsp430::mcu::Mcu;
use openmsp430::periph::DmaOp;
use openmsp430::signals::Signals;
use openmsp430::superblock::{SbConfig, SbExit, StepCtl, WireSummary};
use periph::gpio::{Gpio, PORT1_VECTOR, PORT2_VECTOR};
use periph::{DmaController, Timer, Uart};
use pox_crypto::hmac::HmacKey;
use std::fmt;
use vrased::hw::{swatt_exit_addr, KeyGuard, SwAttAtomicity};
use vrased::props::{names, ErInfo, PropCtx, WireImage};
use vrased::swatt::{attest, swatt_cycle_cost, CHAL_LEN};

/// A streaming consumer of per-step waveform samples — the opt-in
/// alternative to buffering a [`WaveSample`] per step inside the device.
pub type WaveSink = Box<dyn FnMut(WaveSample) + Send>;

/// A streaming consumer of every step's full [`Signals`] bundle.
/// Installing one sends the run loops down the per-step pipeline
/// (superblock bursts report wires, not the signals the tap must see).
pub type SignalTap = Box<dyn FnMut(&Signals) + Send>;

/// Which PoX architecture the hardware implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoxMode {
    /// APEX: interrupts during `ER` execution invalidate the proof.
    Apex,
    /// ASAP: interrupts are tolerated while the PC stays inside `ER`;
    /// the IVT is guarded and attested.
    Asap,
}

/// Fluent constructor for [`Device`], obtained from [`Device::builder`].
///
/// Replaces the old positional `Device::new(image, mode, key)` calls:
/// every knob is named, the defaults (ASAP mode, default layout, no
/// capture) are explicit, and a missing key is a typed
/// [`AsapError::MissingKey`] rather than a positional-argument shuffle.
///
/// # Examples
///
/// ```
/// use asap::device::{Device, PoxMode};
/// use asap::programs;
///
/// let image = programs::fig4_authorized()?;
/// let device = Device::builder(&image)
///     .mode(PoxMode::Asap)
///     .key(b"device-key")
///     .record_wave(true)
///     .build()?;
/// assert_eq!(device.mode(), PoxMode::Asap);
/// # Ok::<(), asap::AsapError>(())
/// ```
pub struct DeviceBuilder<'a> {
    image: &'a Image,
    mode: PoxMode,
    key: Option<Vec<u8>>,
    layout: MemLayout,
    record_wave: bool,
    record_trace: bool,
    wave_sink: Option<WaveSink>,
    signal_tap: Option<SignalTap>,
    superblocks: bool,
}

impl fmt::Debug for DeviceBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceBuilder")
            .field("mode", &self.mode)
            .field("record_wave", &self.record_wave)
            .field("record_trace", &self.record_trace)
            .field("streaming", &self.wave_sink.is_some())
            .field("superblocks", &self.superblocks)
            .finish()
    }
}

impl<'a> DeviceBuilder<'a> {
    fn new(image: &'a Image) -> DeviceBuilder<'a> {
        DeviceBuilder {
            image,
            mode: PoxMode::Asap,
            key: None,
            layout: MemLayout::default(),
            record_wave: false,
            record_trace: false,
            wave_sink: None,
            signal_tap: None,
            superblocks: true,
        }
    }

    /// Selects the PoX architecture (default: [`PoxMode::Asap`]).
    pub fn mode(mut self, mode: PoxMode) -> Self {
        self.mode = mode;
        self
    }

    /// Provisions the device key (required).
    pub fn key(mut self, key: &[u8]) -> Self {
        self.key = Some(key.to_vec());
        self
    }

    /// Uses a custom memory layout (default: [`MemLayout::default`]).
    pub fn layout(mut self, layout: MemLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Records one [`WaveSample`] per step (Fig. 5 signals). Off by
    /// default: waveform capture costs memory on long runs.
    pub fn record_wave(mut self, on: bool) -> Self {
        self.record_wave = on;
        self
    }

    /// Records a proposition trace for LTL conformance checking, as if
    /// [`Device::record_trace`] were called at power-on.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Streams one [`WaveSample`] per step into `sink` instead of (or in
    /// addition to) buffering them on the device — e.g. to feed an
    /// incremental VCD writer or an on-line dashboard without the
    /// unbounded `Vec` growth of [`DeviceBuilder::record_wave`] on long
    /// runs.
    pub fn stream_wave(mut self, sink: impl FnMut(WaveSample) + Send + 'static) -> Self {
        self.wave_sink = Some(Box::new(sink));
        self
    }

    /// Streams every step's full [`Signals`] into `tap` — for digest
    /// pipelines and bit-identity harnesses. Like any capture, it makes
    /// the run loops step per step.
    pub fn stream_signals(mut self, tap: impl FnMut(&Signals) + Send + 'static) -> Self {
        self.signal_tap = Some(Box::new(tap));
        self
    }

    /// Enables or disables superblock execution in the internal run
    /// loops (default: on). `step`/`step_into` are always per-step, and
    /// so are the run loops of a device that captures a trace, a
    /// waveform or a signal tap; this knob exists for ablation
    /// benchmarks and cross-checks against the per-step pipeline.
    pub fn superblocks(mut self, on: bool) -> Self {
        self.superblocks = on;
        self
    }

    /// Builds the device.
    ///
    /// # Errors
    ///
    /// [`AsapError::MissingKey`] when no key was provided;
    /// [`AsapError::KeyTooLong`] when the key does not fit the layout's
    /// key region;
    /// [`AsapError::NoEr`], [`AsapError::BadLayout`] or
    /// [`AsapError::ErOutsideProgram`] when the image and layout do not
    /// form a provable configuration.
    pub fn build(self) -> Result<Device, AsapError> {
        let key = self.key.ok_or(AsapError::MissingKey)?;
        let max = self.layout.key.len() as usize;
        if key.len() > max {
            return Err(AsapError::KeyTooLong {
                len: key.len(),
                max,
            });
        }
        let mut device = Device::assemble(self.image, self.mode, &key, self.layout)?;
        if self.record_wave {
            device.wave = Some(Vec::new());
        }
        device.wave_sink = self.wave_sink;
        device.signal_tap = self.signal_tap;
        device.superblocks = self.superblocks;
        if self.record_trace {
            device.record_trace();
        }
        Ok(device)
    }
}

/// One waveform sample per step — the signals of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveSample {
    /// Cycle count after the step.
    pub cycle: u64,
    /// Program counter.
    pub pc: u16,
    /// The `irq` wire.
    pub irq: bool,
    /// The `EXEC` wire.
    pub exec: bool,
}

/// What one device step did.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// The raw signals.
    pub signals: Signals,
    /// `EXEC` after the step.
    pub exec: bool,
    /// A VRASED guard forced a hard reset this step.
    pub reset: bool,
    /// Violations raised this step.
    pub violations: Vec<String>,
}

/// The VRASED guard pair every device carries, as one static composition.
type VrasedGuards = Compose<KeyGuard, SwAttAtomicity>;

/// The complete `HW-Mod` stack of Fig. 2 as a statically composed monitor
/// — VRASED's key guard and SW-Att atomicity conjoined with the
/// mode-specific `EXEC` monitor (the APEX kernel, or ASAP's kernel +
/// `IvtGuard` composite). One enum arm per architecture, each a concrete
/// [`Compose`] chain: the per-step walk is fully monomorphized, with no
/// `dyn` dispatch and no heap allocation on the clean path.
#[derive(Clone, PartialEq)]
enum MonitorStack {
    Apex(Compose<VrasedGuards, ApexMonitor>),
    Asap(Compose<VrasedGuards, AsapMonitor>),
}

/// The merged output wires of one monitor-stack clock. Plain booleans:
/// violation text is rendered by the device only on the rising edges, so
/// the clean path allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
struct StackOut {
    exec: bool,
    reset: bool,
    key_raised: bool,
    atomicity_raised: bool,
    exec_fell: bool,
}

impl StackOut {
    fn violations(&self) -> usize {
        self.key_raised as usize + self.atomicity_raised as usize + self.exec_fell as usize
    }

    /// Appends the message of every violation edge raised this clock,
    /// stamped with `step`. Allocates only when something tripped.
    fn record(&self, mode: PoxMode, step: u64, log: &mut Vec<(u64, String)>) {
        if self.key_raised {
            log.push((step, KeyGuard::VIOLATION.into()));
        }
        if self.atomicity_raised {
            log.push((step, SwAttAtomicity::VIOLATION.into()));
        }
        if self.exec_fell {
            let message = match mode {
                PoxMode::Apex => ApexMonitor::EXEC_CLEARED,
                PoxMode::Asap => AsapMonitor::EXEC_CLEARED,
            };
            log.push((step, message.into()));
        }
    }
}

impl MonitorStack {
    fn new(mode: PoxMode) -> MonitorStack {
        let guards = Compose(KeyGuard::default(), SwAttAtomicity::default());
        match mode {
            PoxMode::Apex => MonitorStack::Apex(Compose(guards, ApexMonitor::default())),
            PoxMode::Asap => MonitorStack::Asap(Compose(guards, AsapMonitor::default())),
        }
    }

    /// Clocks every monitor against one shared [`WireImage`] — the
    /// hardware picture exactly: all modules sample the same wires on
    /// the same clock edge, and the outputs conjoin. The per-step path
    /// extracts the image from full [`Signals`], the superblock path
    /// from a [`WireSummary`].
    fn step_image(&mut self, w: &WireImage) -> StackOut {
        let (guards, exec) = match self {
            MonitorStack::Apex(Compose(guards, monitor)) => (guards, monitor.step_wires(w)),
            MonitorStack::Asap(Compose(guards, monitor)) => (guards, monitor.step_wires(w)),
        };
        let key = guards.0.step_wires(w);
        let atomicity = guards.1.step_wires(w);
        StackOut {
            exec: exec.wire,
            reset: key.wire || atomicity.wire,
            key_raised: key.raised,
            atomicity_raised: atomicity.raised,
            exec_fell: exec.raised,
        }
    }

    /// Hardware reset: every FSM back to its power-on state.
    fn reset(&mut self) {
        *self = match self {
            MonitorStack::Apex(_) => MonitorStack::new(PoxMode::Apex),
            MonitorStack::Asap(_) => MonitorStack::new(PoxMode::Asap),
        };
    }

    fn exec(&self) -> bool {
        match self {
            MonitorStack::Apex(stack) => stack.1.exec(),
            MonitorStack::Asap(stack) => stack.1.exec(),
        }
    }
}

/// The allocation-free outcome of one [`Device::step_into`] call; the
/// signals themselves land in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepVerdict {
    /// `EXEC` after the step.
    pub exec: bool,
    /// A VRASED guard forced a hard reset this step.
    pub reset: bool,
    /// Number of violations raised this step (full text in
    /// [`Device::violations`]).
    pub violations: usize,
}

/// The prover device.
pub struct Device {
    /// The underlying MCU (exposed for tests and examples).
    pub mcu: Mcu,
    ctx: PropCtx,
    mode: PoxMode,
    er: ErInfo,
    /// HMAC key over the provisioned key-region bytes that SW-Att reads.
    key: HmacKey,
    stack: MonitorStack,
    trace: Option<Trace>,
    wave: Option<Vec<WaveSample>>,
    wave_sink: Option<WaveSink>,
    signal_tap: Option<SignalTap>,
    superblocks: bool,
    violations: Vec<(u64, String)>,
    resets: u64,
    /// Reused per-step signal buffer for the internal run loops and the
    /// synthetic SW-Att steps, so attestation rounds allocate nothing for
    /// signal traffic.
    scratch: Signals,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("mode", &self.mode)
            .field("pc", &self.mcu.cpu.regs.pc())
            .field("exec", &self.exec())
            .field("resets", &self.resets)
            .finish()
    }
}

impl Device {
    /// Starts building a device that runs `image`. See [`DeviceBuilder`]
    /// for the knobs; `.key(..)` is required.
    ///
    /// The standard peripheral set is attached: a timer, GPIO ports P1
    /// (button, interrupt-capable), P2 and P5 (actuation), a UART and a
    /// DMA controller. The device key is written to the hardware-gated
    /// key region and the `EXEC` flag is exposed as a read-only MMIO
    /// word at [`MemLayout::exec_flag_addr`].
    pub fn builder(image: &Image) -> DeviceBuilder<'_> {
        DeviceBuilder::new(image)
    }

    /// The construction path behind [`DeviceBuilder::build`].
    fn assemble(
        image: &Image,
        mode: PoxMode,
        key: &[u8],
        mut layout: MemLayout,
    ) -> Result<Device, AsapError> {
        let er_bounds = image.er.as_ref().ok_or(AsapError::NoEr)?;
        let er = ErInfo {
            min: er_bounds.min,
            exit: er_bounds.exit,
            region: er_bounds.region,
        };
        layout.er = er.region;
        layout.validate()?;
        if !layout.program.contains_region(&er.region) {
            return Err(AsapError::ErOutsideProgram);
        }
        let ctx = PropCtx::with_er(layout, er);

        let mut mcu = Mcu::new(layout);
        mcu.add_peripheral(Box::new(Timer::new()));
        mcu.add_peripheral(Box::new(Gpio::port(1, Some(PORT1_VECTOR))));
        mcu.add_peripheral(Box::new(Gpio::port(2, Some(PORT2_VECTOR))));
        mcu.add_peripheral(Box::new(Gpio::port(5, None)));
        mcu.add_peripheral(Box::new(Uart::new()));
        mcu.add_peripheral(Box::new(DmaController::new()));
        mcu.add_hw_cell(layout.exec_flag_addr, 0);

        image.load_into(&mut mcu.mem);
        // Provision the device key (normally burned at manufacture).
        // `build` checked that the key fits the region.
        let mut key_bytes = vec![0u8; layout.key.len() as usize];
        key_bytes[..key.len()].copy_from_slice(key);
        mcu.mem.load(layout.key.start(), &key_bytes);
        mcu.reset();
        // Warm the predecode cache over the proved region; everything
        // else fills lazily on first fetch.
        mcu.predecode(er.region);

        Ok(Device {
            mcu,
            ctx,
            mode,
            er,
            key: HmacKey::new(&key_bytes),
            stack: MonitorStack::new(mode),
            trace: None,
            wave: None,
            wave_sink: None,
            signal_tap: None,
            superblocks: true,
            violations: Vec::new(),
            resets: 0,
            scratch: Signals::default(),
        })
    }

    /// The PoX architecture in force.
    pub fn mode(&self) -> PoxMode {
        self.mode
    }

    /// The `ER` geometry.
    pub fn er(&self) -> ErInfo {
        self.er
    }

    /// The proposition context (layout + `ER`).
    pub fn ctx(&self) -> &PropCtx {
        &self.ctx
    }

    /// Current `EXEC` level.
    pub fn exec(&self) -> bool {
        self.stack.exec()
    }

    /// Number of VRASED-forced hard resets so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// All violations recorded so far, with the step they occurred at.
    pub fn violations(&self) -> &[(u64, String)] {
        &self.violations
    }

    /// Starts recording a proposition trace (for LTL conformance checks).
    pub fn record_trace(&mut self) {
        self.trace = Some(Trace::new());
    }

    /// The recorded trace, if any.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The recorded waveform samples (Fig. 5 signals). Empty unless the
    /// device was built with [`DeviceBuilder::record_wave`].
    pub fn wave(&self) -> &[WaveSample] {
        self.wave.as_deref().unwrap_or(&[])
    }

    /// Clocks the monitor stack with one step's signals and applies its
    /// output wires. The clean path (no violation, no capture sink)
    /// performs no heap allocation.
    fn observe(&mut self, signals: &Signals) -> StepVerdict {
        let out = self.stack.step_image(&WireImage::of(&self.ctx, signals));
        let exec = out.exec;
        self.mcu
            .set_hw_cell(self.ctx.layout.exec_flag_addr, exec as u16);
        out.record(self.mode, signals.step, &mut self.violations);

        if let Some(trace) = self.trace.as_mut() {
            let mut props = self.ctx.props_of(signals);
            if exec {
                props.insert(names::EXEC.to_string());
            }
            if out.reset {
                props.insert(names::RESET.to_string());
            }
            trace.push_state(props);
        }
        if self.wave.is_some() || self.wave_sink.is_some() {
            let sample = WaveSample {
                cycle: signals.cycle,
                pc: signals.pc,
                irq: signals.irq,
                exec,
            };
            if let Some(buffer) = self.wave.as_mut() {
                buffer.push(sample);
            }
            if let Some(sink) = self.wave_sink.as_mut() {
                sink(sample);
            }
        }
        if let Some(tap) = self.signal_tap.as_mut() {
            tap(signals);
        }

        if out.reset {
            self.hard_reset();
        }
        StepVerdict {
            exec,
            reset: out.reset,
            violations: out.violations(),
        }
    }

    /// True when something consumes every step's full signals — a trace,
    /// a waveform buffer or sink, or a signal tap.
    fn capturing(&self) -> bool {
        self.trace.is_some()
            || self.wave.is_some()
            || self.wave_sink.is_some()
            || self.signal_tap.is_some()
    }

    /// VRASED's response to a guard violation: hard MCU reset (monitors
    /// included; `EXEC` returns to 0).
    fn hard_reset(&mut self) {
        self.mcu.reset();
        self.stack.reset();
        self.resets += 1;
    }

    /// Executes one step.
    ///
    /// Compatibility wrapper over [`Device::step_into`]: allocates a
    /// fresh [`Signals`] (and its report) per call. Hot loops should hold
    /// one `Signals` and call `step_into`.
    pub fn step(&mut self) -> StepReport {
        let mut signals = Signals::default();
        let verdict = self.step_into(&mut signals);
        let raised = &self.violations[self.violations.len() - verdict.violations..];
        let violations = raised.iter().map(|(_, v)| v.clone()).collect();
        StepReport {
            signals,
            exec: verdict.exec,
            reset: verdict.reset,
            violations,
        }
    }

    /// Executes one step, writing the observed signals into the
    /// caller-owned `signals` buffer (cleared and refilled in place) and
    /// clocking the monitor stack against them. The fast path of the
    /// step pipeline: no per-step allocation once the buffer's capacity
    /// has stabilized.
    pub fn step_into(&mut self, signals: &mut Signals) -> StepVerdict {
        self.mcu.step_into(signals);
        self.observe(signals)
    }

    /// Runs up to `max_steps`, stopping early when the PC reaches
    /// `stop_pc`. Returns true if the stop address was reached.
    pub fn run_until_pc(&mut self, stop_pc: u16, max_steps: u64) -> bool {
        self.run(Some(stop_pc), max_steps)
    }

    /// Runs exactly `steps` steps (or until a CPU fault).
    pub fn run_steps(&mut self, steps: u64) {
        self.run(None, steps);
    }

    /// The run loop behind [`Device::run_steps`] and
    /// [`Device::run_until_pc`]: up to `max_steps` steps, stopping
    /// before `stop_pc` or after a CPU fault. Returns true if it stopped
    /// at `stop_pc`.
    ///
    /// With superblocks on and no capture, it bursts through cached
    /// straight-line traces (see [`Device::burst`]). Steps a trace
    /// cannot run — interrupt servicing, MMIO fetches, a halted CPU —
    /// and every step of a capturing or superblocks-off device go
    /// through exactly one [`Device::step_into`], so the machine and
    /// every monitor see the same history as the per-step pipeline.
    fn run(&mut self, stop_pc: Option<u16>, max_steps: u64) -> bool {
        let bursts = self.superblocks && !self.capturing();
        let mut signals = std::mem::take(&mut self.scratch);
        let mut remaining = max_steps;
        let mut outcome = None;
        while remaining > 0 {
            if stop_pc == Some(self.mcu.cpu.regs.pc()) {
                outcome = Some(true);
                break;
            }
            if bursts {
                let (done, exit) = self.burst(stop_pc, remaining);
                remaining -= done;
                match exit {
                    SbExit::Budget => break,
                    SbExit::StopPc => {
                        outcome = Some(true);
                        break;
                    }
                    SbExit::Fault => {
                        outcome = Some(false);
                        break;
                    }
                    SbExit::ObserverStop => continue,
                    SbExit::NeedStep if remaining == 0 => break,
                    SbExit::NeedStep => {}
                }
            }
            self.step_into(&mut signals);
            remaining -= 1;
            if signals.fault.is_some() {
                outcome = Some(false);
                break;
            }
        }
        let reached =
            outcome.unwrap_or_else(|| stop_pc.is_some_and(|sp| self.mcu.cpu.regs.pc() == sp));
        self.scratch = signals;
        reached
    }

    /// One superblock burst of at most `budget` steps, clocking the
    /// monitor stack once per interior step from its [`WireSummary`]. A
    /// guard's reset request ends the burst and is applied once it
    /// returns.
    fn burst(&mut self, stop_pc: Option<u16>, budget: u64) -> (u64, SbExit) {
        let cfg = SbConfig {
            budget,
            stop_pc,
            exec_cell: Some(self.ctx.layout.exec_flag_addr),
        };
        let mut reset_pending = false;
        // Monitor clock gating: once clocking the stack with a given
        // wire picture provably left every FSM unchanged (a fixed point —
        // checked by state comparison), repeating the same picture must
        // repeat the same output, so the kernels are skipped until the
        // wires change. Scoped to one burst: any out-of-band clocking
        // (per-step fallback, hard reset) starts the next burst ungated.
        let mut gate: Option<(WireSummary, StackOut)> = None;
        let mut gate_stable = false;
        // Disjoint field borrows: the executor owns `mcu`, the observer
        // closure the monitor stack and the violation log.
        let Device {
            mcu,
            ctx,
            mode,
            stack,
            violations,
            ..
        } = self;
        let result = mcu.run_superblock(&cfg, |s| {
            // The wire picture: PC and wires, without the step index.
            let key = WireSummary { step: 0, ..*s };
            let out = match gate {
                Some((gated, out)) if gate_stable && gated == key => out,
                _ => {
                    let before = stack.clone();
                    let out = stack.step_image(&WireImage::of_summary(ctx, s));
                    gate_stable = *stack == before;
                    gate = Some((key, out));
                    out
                }
            };
            out.record(*mode, s.step, violations);
            reset_pending |= out.reset;
            StepCtl {
                exec: out.exec,
                stop: out.reset,
            }
        });
        if reset_pending {
            self.hard_reset();
        }
        result
    }

    /// Models an attacker-controlled CPU instruction writing `value` at
    /// `addr` (the write is driven through the monitors as a CPU-mastered
    /// bus access executed from untrusted code outside `ER`).
    pub fn attacker_cpu_write(&mut self, addr: u16, value: u16) {
        self.mcu.mem.write_word(addr, value);
        let pc = self.mcu.cpu.regs.pc();
        let gie = self.mcu.cpu.regs.gie();
        let cpu_off = self.mcu.cpu.regs.cpu_off();
        let mut signals = std::mem::take(&mut self.scratch);
        self.fill_synthetic_step(&mut signals, pc, &[MemAccess::write(addr, value, false)]);
        signals.gie = gie;
        signals.cpu_off = cpu_off;
        self.observe(&signals);
        self.scratch = signals;
    }

    /// Queues a DMA write of `value` to `addr`, performed by the DMA
    /// master on the next step.
    pub fn attacker_dma_write(&mut self, addr: u16, value: u16) {
        // Stage the value in a scratch location and copy it via DMA so
        // the access is genuinely DMA-mastered.
        let scratch = self.ctx.layout.data.end() & !1;
        self.mcu.mem.write_word(scratch, value);
        self.mcu.inject_dma(DmaOp {
            src: scratch,
            dst: addr,
            byte: false,
        });
    }

    /// Presses (or releases) the button wired to GPIO port 1, pin
    /// `pin` — the asynchronous event of Fig. 4 / §3.
    pub fn set_button(&mut self, pin: u8, level: bool) {
        let p1: &mut Gpio = self.mcu.periph_mut().expect("port 1 attached");
        p1.set_input(pin, level);
    }

    /// Delivers bytes to the UART receiver (the network command path of
    /// §3).
    pub fn uart_rx(&mut self, bytes: &[u8]) {
        let uart: &mut Uart = self.mcu.periph_mut().expect("uart attached");
        uart.rx_push_bytes(bytes);
    }

    /// The bytes currently in the output region `OR`.
    pub fn or_bytes(&self) -> Vec<u8> {
        self.mcu.mem.snapshot(self.ctx.layout.or)
    }

    /// The bytes of the executable region.
    pub fn er_bytes(&self) -> Vec<u8> {
        self.mcu.mem.snapshot(self.er.region)
    }

    /// The current IVT contents.
    pub fn ivt_bytes(&self) -> Vec<u8> {
        self.mcu.mem.snapshot(self.ctx.layout.ivt)
    }

    /// Runs the SW-Att ROM routine for a PoX request and returns the
    /// response.
    ///
    /// The routine is simulated natively: the device synthesizes the
    /// bus-signal footprint of the ROM execution (entry at the ROM's
    /// first instruction, key reads, measurement reads, MAC write, exit
    /// from the ROM's last instruction) and clocks every monitor with
    /// it, then charges the HMAC cycle cost. Monitors therefore observe
    /// the attestation exactly as they would observe real ROM code.
    pub fn attest(&mut self, req: &PoxRequest) -> PoxResponse {
        let layout = self.ctx.layout;
        let chal: [u8; CHAL_LEN] = *req.chal.as_bytes();

        // --- Step 1: enter SW-Att at its first instruction.
        self.swatt_step(layout.swatt.start(), &[]);

        // --- Step 2: the measurement body — key + region reads. The MAC
        // borrows the measured regions straight from memory.
        let exec = self.exec();
        let mem = &self.mcu.mem;
        let or_bytes = mem.slice(layout.or);
        let ivt = match self.mode {
            PoxMode::Asap => Some((layout.ivt, mem.slice(layout.ivt))),
            PoxMode::Apex => None,
        };
        let items = pox_items(
            exec,
            self.er.region,
            mem.slice(self.er.region),
            layout.or,
            or_bytes,
            ivt,
        );
        let mac = attest(&self.key, &chal, &items);
        let measured: usize = items.iter().map(|i| i.bytes.len()).sum();
        let output = or_bytes.to_vec();
        let ivt = ivt.map(|(_, bytes)| bytes.to_vec());

        let mut accesses = [MemAccess::read(0, 0, true); 4];
        let mut measured_regions = 3;
        accesses[0] = MemAccess::read(layout.key.start(), 0, true);
        accesses[1] = MemAccess::read(self.er.region.start(), 0, true);
        accesses[2] = MemAccess::read(layout.or.start(), 0, true);
        if self.mode == PoxMode::Asap {
            accesses[3] = MemAccess::read(layout.ivt.start(), 0, true);
            measured_regions = 4;
        }
        self.swatt_step(layout.swatt.start() + 2, &accesses[..measured_regions]);
        self.mcu.charge_cycles(swatt_cycle_cost(measured));

        // --- Step 3: write the MAC to the metadata region.
        self.mcu.mem.load(layout.mac_addr(), &mac);
        self.swatt_step(
            layout.swatt.start() + 4,
            &[MemAccess::write(layout.mac_addr(), 0, true)],
        );

        // --- Step 4: leave from the ROM's last instruction.
        self.swatt_step(swatt_exit_addr(&layout), &[]);
        // One step after the ROM: back in untrusted code.
        let ret_pc = self.mcu.cpu.regs.pc();
        self.swatt_step(ret_pc, &[]);

        PoxResponse {
            exec,
            output,
            ivt,
            mac,
        }
    }

    /// Transport-level [`Device::attest`]: decodes a wire-encoded
    /// [`PoxRequest`], runs SW-Att, and returns the wire-encoded
    /// response. This is the prover end of a [`crate::PoxSession`]
    /// crossing a byte transport.
    ///
    /// # Errors
    ///
    /// [`AsapError::Wire`] when the request bytes do not decode.
    pub fn attest_bytes(&mut self, request: &[u8]) -> Result<Vec<u8>, AsapError> {
        let req = PoxRequest::from_bytes(request)?;
        Ok(self.attest(&req).to_bytes())
    }

    /// Clocks all monitors with one synthetic SW-Att step. The reused
    /// scratch buffer means attestation rounds cost no signal
    /// allocations, round after round.
    fn swatt_step(&mut self, pc: u16, accesses: &[MemAccess]) {
        debug_assert!(accesses.iter().all(|a| a.master == Master::Cpu));
        let mut signals = std::mem::take(&mut self.scratch);
        self.fill_synthetic_step(&mut signals, pc, accesses);
        self.observe(&signals);
        self.scratch = signals;
    }

    /// Renders a monitor-only synthetic step (no CPU execution) into the
    /// reusable buffer: `irq_pending` is live, everything else is the
    /// quiescent footprint plus the given bus accesses.
    fn fill_synthetic_step(&mut self, signals: &mut Signals, pc: u16, accesses: &[MemAccess]) {
        signals.cycle = self.mcu.cycles();
        signals.step = self.mcu.steps();
        signals.pc = pc;
        signals.pc_next = pc;
        signals.irq = false;
        signals.irq_vector = None;
        signals.irq_pending = self.mcu.irq_pending();
        signals.gie = false;
        signals.cpu_off = false;
        signals.idle = false;
        signals.accesses.clear();
        signals.accesses.extend_from_slice(accesses);
        signals.fault = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp430_tools::link::{link, LinkConfig};

    /// The Fig. 4 program: startER calls the body; the body busy-waits;
    /// a GPIO ISR (in exec.body) writes PORT5; exitER returns.
    const FIG4: &str = "
        .section exec.start
    startER:
        call #dummy_main
        br   #exitER            ; exec.body is linked between start and leave
        .section exec.leave
    exitER:
        ret
        .section exec.body
    dummy_main:
        mov #20, r4
    loop:
        dec r4
        jnz loop
        ret
    gpio_isr:
        mov.b #0xFF, &0x0041   ; P5OUT
        reti
        .section text
    main:
        call #startER
    done:
        jmp done
    ";

    fn image() -> Image {
        let cfg = LinkConfig::new(0xE000, 0xF000)
            .vector(2, "gpio_isr")
            .reset("main");
        link(FIG4, &cfg).unwrap()
    }

    fn build() -> Device {
        Device::builder(&image())
            .key(b"test-key")
            .record_wave(true)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_runs_to_completion() {
        let mut d = build();
        assert!(!d.exec(), "EXEC is 0 at power-on");
        let img_done = 0xF004; // main is call (4 bytes) then done
        assert!(d.run_until_pc(img_done, 1000));
        assert!(d.exec(), "honest execution sets EXEC");
    }

    #[test]
    fn attestation_roundtrip_verifies() {
        use crate::verifier::{AsapVerifier, VerifierSpec};

        let img = image();
        let mut d = Device::builder(&img).key(b"test-key").build().unwrap();
        d.run_until_pc(0xF004, 1000);
        let mut vrf = AsapVerifier::new(b"test-key", VerifierSpec::from_image(&img).unwrap());
        let session = vrf.begin();
        let resp = d.attest(session.request());
        assert!(resp.exec);
        assert!(resp.ivt.is_some(), "ASAP responses carry the IVT");
        assert!(session.evidence(resp).conclude(&vrf).is_verified());
    }

    #[test]
    fn attacker_ivt_write_clears_exec() {
        let mut d = build();
        d.run_until_pc(0xF004, 1000);
        assert!(d.exec());
        d.attacker_cpu_write(0xFFE4, 0xDEAD);
        assert!(!d.exec(), "[AP1]: CPU write to IVT clears EXEC");
    }

    #[test]
    fn attacker_dma_to_ivt_clears_exec() {
        let mut d = build();
        d.run_until_pc(0xF004, 1000);
        assert!(d.exec());
        d.attacker_dma_write(0xFFE4, 0xDEAD);
        d.step();
        assert!(!d.exec(), "[AP1]: DMA write to IVT clears EXEC");
    }

    #[test]
    fn key_read_outside_swatt_forces_reset() {
        let mut d = build();
        let before = d.resets();
        // Untrusted code reads the key region.
        let key_addr = d.ctx().layout.key.start();
        let pc = d.mcu.cpu.regs.pc();
        let signals = Signals {
            cycle: d.mcu.cycles(),
            step: d.mcu.steps(),
            pc,
            pc_next: pc,
            irq: false,
            irq_vector: None,
            irq_pending: false,
            gie: false,
            cpu_off: false,
            idle: false,
            accesses: vec![MemAccess::read(key_addr, 0, true)],
            fault: None,
        };
        d.observe(&signals);
        assert_eq!(
            d.resets(),
            before + 1,
            "VRASED hard-resets on key leakage attempts"
        );
        assert!(!d.exec());
    }

    #[test]
    fn attestation_does_not_trip_guards() {
        use crate::verifier::{AsapVerifier, VerifierSpec};

        let img = image();
        let mut d = Device::builder(&img).key(b"test-key").build().unwrap();
        d.run_until_pc(0xF004, 1000);
        let mut vrf = AsapVerifier::new(b"test-key", VerifierSpec::from_image(&img).unwrap());
        let session = vrf.begin();
        let resets_before = d.resets();
        let resp = d.attest(session.request());
        assert_eq!(d.resets(), resets_before, "SW-Att runs without violations");
        assert!(resp.exec, "attestation preserves EXEC");
        assert!(d.exec());
    }

    #[test]
    fn attest_bytes_is_the_wire_face_of_attest() {
        use crate::verifier::{AsapVerifier, VerifierSpec};

        let img = image();
        let mut d = Device::builder(&img).key(b"test-key").build().unwrap();
        d.run_until_pc(0xF004, 1000);
        let mut vrf = AsapVerifier::new(b"test-key", VerifierSpec::from_image(&img).unwrap());
        let session = vrf.begin();
        let resp_bytes = d.attest_bytes(&session.request_bytes()).unwrap();
        let outcome = session.evidence_bytes(&resp_bytes).unwrap().conclude(&vrf);
        assert!(outcome.is_verified());
        assert!(
            d.attest_bytes(b"garbage").is_err(),
            "garbled requests are rejected"
        );
    }

    #[test]
    fn builder_requires_a_key() {
        use crate::error::AsapError;

        let img = image();
        assert_eq!(
            Device::builder(&img).build().unwrap_err(),
            AsapError::MissingKey
        );
    }

    #[test]
    fn key_must_fit_the_key_region() {
        use crate::error::AsapError;
        use crate::verifier::{AsapVerifier, VerifierSpec};

        let img = image();
        let full = [0x5A; 32];
        let mut d = Device::builder(&img).key(&full).build().unwrap();
        d.run_until_pc(0xF004, 1000);
        let mut vrf = AsapVerifier::new(&full, VerifierSpec::from_image(&img).unwrap());
        let session = vrf.begin();
        let resp = d.attest(session.request());
        assert!(session.evidence(resp).conclude(&vrf).is_verified());

        // One byte more would be truncated on the device and never
        // verify, so the builder refuses it.
        assert_eq!(
            Device::builder(&img).key(&[0x5A; 33]).build().unwrap_err(),
            AsapError::KeyTooLong { len: 33, max: 32 }
        );
    }

    #[test]
    fn wave_capture_is_opt_in() {
        let img = image();
        let mut d = Device::builder(&img).key(b"test-key").build().unwrap();
        d.run_steps(5);
        assert!(d.wave().is_empty(), "no samples unless record_wave(true)");
    }

    #[test]
    fn streaming_wave_sink_sees_every_step() {
        use std::sync::{Arc, Mutex};

        let img = image();
        let sunk = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&sunk);
        let mut d = Device::builder(&img)
            .key(b"test-key")
            .record_wave(true)
            .stream_wave(move |s| tap.lock().unwrap().push(s))
            .build()
            .unwrap();
        d.run_steps(7);
        assert_eq!(
            sunk.lock().unwrap().as_slice(),
            d.wave(),
            "the stream and the buffer observe the same samples"
        );
    }

    #[test]
    fn step_into_matches_step_reports() {
        let img = image();
        let mut a = Device::builder(&img).key(b"test-key").build().unwrap();
        let mut b = Device::builder(&img).key(b"test-key").build().unwrap();
        let mut signals = Signals::default();
        for _ in 0..40 {
            let report = a.step();
            let verdict = b.step_into(&mut signals);
            assert_eq!(report.signals, signals);
            assert_eq!(report.exec, verdict.exec);
            assert_eq!(report.reset, verdict.reset);
            assert_eq!(report.violations.len(), verdict.violations);
        }
    }

    #[test]
    fn er_tamper_after_execution_clears_exec() {
        let mut d = build();
        d.run_until_pc(0xF004, 1000);
        assert!(d.exec());
        let er_min = d.er().min;
        d.attacker_cpu_write(er_min + 8, 0x4343);
        assert!(
            !d.exec(),
            "post-execution ER modification invalidates the proof"
        );
    }

    #[test]
    fn wave_records_signals() {
        let mut d = build();
        d.run_steps(5);
        assert_eq!(d.wave().len(), 5);
        assert!(d.wave()[0].cycle > 0);
    }
}
