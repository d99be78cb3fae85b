//! The non-blocking stream halves every socket speaker in this crate
//! is built from, plus the prover-side glue for hosting simulated
//! devices behind a socket.
//!
//! * **The halves** — [`pump_read`] (one non-blocking read attempt
//!   straight into a [`StreamDeframer`]'s buffer, every outcome named
//!   by [`ReadPump`]) and [`WriteQueue`] (a bounded byte queue flushed
//!   with partial-write backpressure, outcomes named by [`WritePump`]).
//!   The [`FleetRuntime`](crate::FleetRuntime) reactors do all their
//!   socket I/O through these two, and the prover loop reads through
//!   [`pump_read`] too, so receive framing cannot drift between the two
//!   ends.
//! * **The prover side** — [`announce_devices`] and [`serve_frames`]
//!   are what examples, tests and benches run simulated devices behind
//!   when they play an out-of-process prover host. Both write with a
//!   plain blocking `write_all`, not through a [`WriteQueue`], and both
//!   write in bursts: an announcement's hellos in one write, and the
//!   responses to every frame one read delivered (at most
//!   [`READ_CHUNK`](apex_pox::wire::READ_CHUNK) bytes, about 90 fig4
//!   challenges) in one write before the next read. The bytes on the
//!   wire are those of one [`frame_stream`](apex_pox::wire::frame_stream)
//!   per frame.
//!
//!   One write per response cost the prover a syscall per session, and
//!   the reactor read the responses a few frames at a time. Bursts only
//!   pay with a reactor that is awake when they land: the runtime's
//!   reactors re-sweep within tens of microseconds of their last
//!   progress and nap longer only as their idleness grows (see the
//!   pacing notes in [`runtime`](crate::runtime)), so a burst is
//!   overshot by at most one short nap. The prover reuses one scratch
//!   [`Envelope`] for every challenge it decodes.

use crate::DeviceId;
use apex_pox::wire::{
    frame_stream_into, Envelope, StreamDeframer, ENVELOPE_OVERHEAD, MAX_FRAME_LEN,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};

/// True for the error kinds that mean "nothing to do right now" on a
/// non-blocking or timeout-configured socket.
fn is_not_ready(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// What one [`pump_read`] attempt did to the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPump {
    /// Bytes were read and absorbed into the deframer.
    Bytes(usize),
    /// Nothing available right now (`WouldBlock`/read timeout).
    Idle,
    /// Orderly EOF: the peer hung up.
    Closed,
    /// A hard I/O error: the stream is beyond recovery.
    Broken,
}

/// One read attempt from `stream` into `deframer` — the shared receive
/// half. The bytes land directly in the deframer's buffer
/// ([`StreamDeframer::read_from`]), at most
/// [`READ_CHUNK`](apex_pox::wire::READ_CHUNK) of them. Never loops
/// waiting for data: a non-blocking socket yields [`ReadPump::Idle`]
/// immediately, a timeout-configured one after at most its read
/// timeout. `Interrupted` is retried, since it carries no information
/// about the stream.
pub fn pump_read<S: Read + ?Sized>(stream: &mut S, deframer: &mut StreamDeframer) -> ReadPump {
    loop {
        match deframer.read_from(stream) {
            Ok(0) => return ReadPump::Closed,
            Ok(n) => return ReadPump::Bytes(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_not_ready(e.kind()) => return ReadPump::Idle,
            Err(_) => return ReadPump::Broken,
        }
    }
}

/// What one [`WriteQueue::flush`] attempt did to the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePump {
    /// Every queued byte is on the wire.
    Drained,
    /// The stream stopped accepting bytes; the payload is how many were
    /// written before it did. The rest stay queued for the next flush.
    Blocked(usize),
    /// The peer hung up mid-write.
    Closed,
    /// A hard I/O error: the stream is beyond recovery.
    Broken,
}

/// The shared transmit half: a bounded byte queue in front of a
/// non-blocking (or timeout-configured) stream.
///
/// [`enqueue`](WriteQueue::enqueue) accepts a frame when it fits the
/// bound — except that an *empty* queue always accepts one frame, so a
/// frame no larger than the bound can never be stuck un-sendable.
/// [`flush`](WriteQueue::flush) writes as much as the stream will take
/// and leaves the rest queued: a `WouldBlock` mid-frame is
/// backpressure, not an error, and never wedges the caller's loop.
#[derive(Debug)]
pub struct WriteQueue {
    buf: VecDeque<u8>,
    capacity: usize,
}

/// Default [`WriteQueue`] bound: two maximal frames, so one oversized
/// burst is absorbed while a peer that never drains is still detected.
pub const DEFAULT_WRITE_QUEUE_CAPACITY: usize = 2 * (MAX_FRAME_LEN as usize + 4);

impl Default for WriteQueue {
    fn default() -> WriteQueue {
        WriteQueue::with_capacity(DEFAULT_WRITE_QUEUE_CAPACITY)
    }
}

impl WriteQueue {
    /// An empty queue bounded at `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> WriteQueue {
        WriteQueue {
            buf: VecDeque::new(),
            capacity,
        }
    }

    /// Queues `bytes` for transmission. Returns `false` — queuing
    /// *nothing* — when the queue is non-empty and the bytes would push
    /// it over capacity: the peer is not draining, and the caller
    /// decides whether that means "drop the connection" (a reactor) or
    /// "keep flushing first" (a lock-step sender).
    #[must_use]
    pub fn enqueue(&mut self, bytes: &[u8]) -> bool {
        if !self.buf.is_empty() && self.buf.len() + bytes.len() > self.capacity {
            return false;
        }
        self.buf.extend(bytes);
        true
    }

    /// Writes as many queued bytes as `stream` accepts right now.
    ///
    /// Writes are **coalesced**: when several frames are queued (a
    /// round's worth of challenges for one connection), they go to the
    /// stream as one contiguous buffer per `write` call rather than one
    /// write per frame — or two when the ring buffer happens to wrap.
    /// The byte stream is identical either way; only the syscall count
    /// changes.
    pub fn flush<S: Write + ?Sized>(&mut self, stream: &mut S) -> WritePump {
        let mut wrote = 0;
        while !self.buf.is_empty() {
            let head: &[u8] = self.buf.make_contiguous();
            match stream.write(head) {
                Ok(0) => return WritePump::Closed,
                Ok(n) => {
                    self.buf.drain(..n);
                    wrote += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_not_ready(e.kind()) => return WritePump::Blocked(wrote),
                Err(_) => return WritePump::Broken,
            }
        }
        match stream.flush() {
            Ok(()) => WritePump::Drained,
            Err(e) if e.kind() == ErrorKind::Interrupted || is_not_ready(e.kind()) => {
                WritePump::Drained
            }
            Err(_) => WritePump::Broken,
        }
    }

    /// Bytes queued but not yet written.
    pub fn queued(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Announces the devices hosted behind `stream` to a
/// [`FleetRuntime`](crate::FleetRuntime): one *hello* frame — an
/// [`Envelope`] with an empty payload — per id, all of them gathered
/// into one buffer and sent with one `write_all`. The runtime never
/// judges a hello; it only learns "frames for this device go to this
/// connection", which is how challenges find provers that dialed in.
///
/// # Errors
///
/// Any write error from the stream.
pub fn announce_devices<S: Write>(stream: &mut S, ids: &[DeviceId]) -> std::io::Result<()> {
    let mut hellos = Vec::with_capacity(ids.len() * (4 + ENVELOPE_OVERHEAD as usize));
    for &id in ids {
        frame_stream_into(&mut hellos, &Envelope::wrap(id.0, Vec::new()).to_bytes());
    }
    stream.write_all(&hellos)?;
    stream.flush()
}

/// Prover-side frame loop: reads
/// [`frame_stream`](apex_pox::wire::frame_stream)-framed envelopes off
/// `stream`, hands each to `respond`, and writes back every frame the
/// handler returns (`None` models a device that stays silent). Returns
/// when the peer hangs up or the framing breaks.
///
/// Responses go out one burst per read: every complete frame one read
/// delivered is answered first, the framed responses are gathered into
/// one reused buffer, and that buffer goes out with one `write_all`
/// before the next read. A lone challenge is thus still answered at
/// once, and responses gathered before an oversized frame are written
/// before the loop gives up on the stream. Each frame is decoded with
/// [`Envelope::parse`] into one scratch [`Envelope`] that the loop
/// refills, so a challenge costs no allocation of its own.
///
/// This is the glue an out-of-process prover host needs: the examples,
/// the socket integration tests and the benches all run simulated
/// [`Device`](asap::Device)s behind it in their own thread, after
/// [`announce_devices`] has told the runtime where they live.
pub fn serve_frames<S: Read + Write>(
    mut stream: S,
    mut respond: impl FnMut(DeviceId, &Envelope) -> Option<Vec<u8>>,
) {
    let mut deframer = StreamDeframer::new();
    let mut burst = Vec::new();
    let mut envelope = Envelope::wrap(0, Vec::new());
    loop {
        let framing_broken = loop {
            match deframer.next_frame() {
                Ok(Some(frame)) => {
                    let Ok((device_id, payload)) = Envelope::parse(frame) else {
                        continue; // A prover ignores garbled frames.
                    };
                    envelope.device_id = device_id;
                    envelope.payload.clear();
                    envelope.payload.extend_from_slice(payload);
                    if let Some(response) = respond(DeviceId(device_id), &envelope) {
                        frame_stream_into(&mut burst, &response);
                    }
                }
                Ok(None) => break false,
                Err(_) => break true, // Oversized frame: boundaries are lost.
            }
        };
        if !burst.is_empty() {
            if stream.write_all(&burst).is_err() {
                return;
            }
            burst.clear();
        }
        if framing_broken {
            return;
        }
        match pump_read(&mut stream, &mut deframer) {
            ReadPump::Bytes(_) | ReadPump::Idle => {}
            ReadPump::Closed | ReadPump::Broken => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_pox::wire::frame_stream;

    /// A stream scripted to accept `accept` bytes per write call, then
    /// report `WouldBlock`.
    struct Throttled {
        accept: Vec<usize>,
        written: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self.accept.pop() {
                Some(0) | None => Err(ErrorKind::WouldBlock.into()),
                Some(n) => {
                    let n = n.min(buf.len());
                    self.written.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_partial_writes() {
        let mut q = WriteQueue::with_capacity(64);
        assert!(q.enqueue(b"hello world"));
        let mut stream = Throttled {
            accept: vec![3], // popped back-to-front
            written: Vec::new(),
        };
        assert_eq!(q.flush(&mut stream), WritePump::Blocked(3));
        assert_eq!(q.queued(), 8, "the rest stays queued");
        stream.accept = vec![100];
        assert_eq!(q.flush(&mut stream), WritePump::Drained);
        assert_eq!(stream.written, b"hello world");
        assert!(q.is_empty());
    }

    #[test]
    fn write_queue_bound_rejects_only_when_nonempty() {
        let mut q = WriteQueue::with_capacity(4);
        // An empty queue always accepts one frame, even over the bound.
        assert!(q.enqueue(b"oversized"));
        // A non-empty queue refuses to grow past the bound...
        assert!(!q.enqueue(b"x"));
        // ...and refusal queues nothing.
        assert_eq!(q.queued(), 9);
    }

    /// A stream that takes everything, counting `write` calls.
    struct Greedy {
        writes: usize,
        written: Vec<u8>,
    }

    impl Write for Greedy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_coalesces_frames_and_preserves_framing_bit_for_bit() {
        use apex_pox::wire::{frame_stream, Envelope, StreamDeframer};

        // A round's worth of challenges for one connection, enqueued
        // frame by frame — including across a partial flush so the ring
        // buffer wraps internally. The wire bytes must equal the plain
        // concatenation of the framed envelopes (framing bit-identity),
        // and each ready stream must see exactly ONE write syscall per
        // flush, however many frames are queued.
        let frames: Vec<Vec<u8>> = (1u64..=5)
            .map(|d| frame_stream(&Envelope::wrap(d, vec![d as u8; 24 * d as usize]).to_bytes()))
            .collect();
        let expected: Vec<u8> = frames.iter().flatten().copied().collect();

        let mut q = WriteQueue::with_capacity(4096);
        let mut wire = Vec::new();
        assert!(q.enqueue(&frames[0]));
        assert!(q.enqueue(&frames[1]));
        // A partial write leaves a tail queued; the next enqueues then
        // wrap the ring around its head.
        let mut throttled = Throttled {
            accept: vec![7],
            written: Vec::new(),
        };
        assert_eq!(q.flush(&mut throttled), WritePump::Blocked(7));
        wire.extend_from_slice(&throttled.written);
        for frame in &frames[2..] {
            assert!(q.enqueue(frame));
        }

        let mut greedy = Greedy {
            writes: 0,
            written: Vec::new(),
        };
        assert_eq!(q.flush(&mut greedy), WritePump::Drained);
        assert_eq!(
            greedy.writes, 1,
            "queued frames coalesce into one write syscall, wrapped ring included"
        );
        wire.extend_from_slice(&greedy.written);
        assert_eq!(wire, expected, "coalescing must not disturb a single byte");

        // And the peer's deframer recovers the envelopes exactly.
        let mut deframer = StreamDeframer::new();
        deframer.extend(&wire);
        for (d, frame) in frames.iter().enumerate() {
            let got = deframer
                .next_frame()
                .expect("framing intact")
                .expect("frame complete");
            assert_eq!(&frame_stream(got), frame, "frame {d} round-trips");
        }
        assert!(matches!(deframer.next_frame(), Ok(None)), "no residue");
    }

    #[test]
    fn announce_devices_sends_every_hello_in_one_write() {
        let ids: Vec<DeviceId> = (1u64..=40).map(DeviceId).collect();
        let mut stream = Greedy {
            writes: 0,
            written: Vec::new(),
        };
        announce_devices(&mut stream, &ids).expect("a greedy stream takes every byte");
        assert_eq!(stream.writes, 1, "one write for every hello");
        let expected: Vec<u8> = ids
            .iter()
            .flat_map(|id| frame_stream(&Envelope::wrap(id.0, Vec::new()).to_bytes()))
            .collect();
        assert_eq!(
            stream.written, expected,
            "the same bytes as one frame per hello"
        );
    }

    /// One scripted read: bytes delivered at once, or nothing yet.
    enum Step {
        Bytes(Vec<u8>),
        NotReady,
    }

    /// A prover's socket: reads follow a script (EOF once it runs out),
    /// writes go to a [`Greedy`] stream, and each read notes how many
    /// bytes had been written by then.
    struct Scripted {
        reads: VecDeque<Step>,
        out: Greedy,
        written_at_read: Vec<usize>,
    }

    impl Scripted {
        fn new(reads: impl IntoIterator<Item = Step>) -> Scripted {
            Scripted {
                reads: reads.into_iter().collect(),
                out: Greedy {
                    writes: 0,
                    written: Vec::new(),
                },
                written_at_read: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.written_at_read.push(self.out.written.len());
            match self.reads.pop_front() {
                None => Ok(0),
                Some(Step::NotReady) => Err(ErrorKind::WouldBlock.into()),
                Some(Step::Bytes(bytes)) => {
                    assert!(
                        bytes.len() <= buf.len(),
                        "script a read the deframer can take"
                    );
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The challenge envelope the tests send `id`.
    fn envelope_for(id: u64) -> Envelope {
        Envelope::wrap(id, vec![id as u8; 8 + id as usize])
    }

    /// A challenge frame for `id`, as the runtime puts it on the wire.
    fn challenge(id: u64) -> Vec<u8> {
        frame_stream(&envelope_for(id).to_bytes())
    }

    /// The test prover's answer to `envelope`; devices 3 and 7 are silent.
    fn answer(id: DeviceId, envelope: &Envelope) -> Option<Vec<u8>> {
        if id.0 == 3 || id.0 == 7 {
            return None;
        }
        let payload = envelope.payload.iter().map(|b| b ^ 0xFF).collect();
        Some(Envelope::wrap(id.0, payload).to_bytes())
    }

    /// What the wire must carry for `ids`: one framed answer each, in
    /// order, nothing for a silent device.
    fn answers(ids: impl IntoIterator<Item = u64>) -> Vec<u8> {
        ids.into_iter()
            .filter_map(|id| answer(DeviceId(id), &envelope_for(id)))
            .flat_map(|response| frame_stream(&response))
            .collect()
    }

    fn concat(frames: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
        frames.into_iter().flatten().collect()
    }

    #[test]
    fn serve_frames_writes_one_burst_per_read() {
        // Bursts of 3 and 1 whole frames, a read with nothing to say,
        // and a frame split across two reads.
        let split = challenge(6);
        let mut stream = Scripted::new([
            Step::Bytes(concat([challenge(1), challenge(2), challenge(4)])),
            Step::Bytes(challenge(5)),
            Step::NotReady,
            Step::Bytes(concat([challenge(8), split[..9].to_vec()])),
            Step::Bytes(concat([split[9..].to_vec(), challenge(9)])),
        ]);
        serve_frames(&mut stream, answer);

        assert_eq!(
            stream.out.writes, 4,
            "one write per read that completed frames"
        );
        assert_eq!(stream.out.written, answers([1, 2, 4, 5, 8, 6, 9]));
        // Each burst is on the wire before the next read: a lone
        // challenge is answered at once, not held for company.
        let after = |ids: &[u64]| answers(ids.iter().copied()).len();
        assert_eq!(
            stream.written_at_read,
            vec![
                0,
                after(&[1, 2, 4]),
                after(&[1, 2, 4, 5]),
                after(&[1, 2, 4, 5]),
                after(&[1, 2, 4, 5, 8]),
                after(&[1, 2, 4, 5, 8, 6, 9]),
            ],
        );
    }

    #[test]
    fn serve_frames_writes_nothing_for_silent_or_garbled_frames() {
        let mut garbled = challenge(5);
        garbled[4] ^= 0xFF; // a well-framed envelope with a broken magic
        let mut stream = Scripted::new([
            Step::Bytes(concat([challenge(1), challenge(3), garbled, challenge(2)])),
            Step::Bytes(challenge(7)),
        ]);
        serve_frames(&mut stream, answer);

        assert_eq!(
            stream.out.writes, 1,
            "one write for the burst; silence adds none"
        );
        assert_eq!(stream.out.written, answers([1, 2]));
    }

    #[test]
    fn serve_frames_writes_the_burst_before_an_oversized_frame() {
        let oversized = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        let mut stream = Scripted::new([
            Step::Bytes(concat([challenge(1), challenge(2), oversized, vec![0; 32]])),
            Step::Bytes(challenge(4)),
        ]);
        serve_frames(&mut stream, answer);

        assert_eq!(stream.out.writes, 1);
        assert_eq!(
            stream.out.written,
            answers([1, 2]),
            "answers before the bad frame still go out"
        );
        assert_eq!(stream.reads.len(), 1, "no read after framing breaks");
    }

    #[test]
    fn serve_frames_returns_on_eof() {
        let mut silent = Scripted::new([]);
        serve_frames(&mut silent, answer);
        assert_eq!((silent.out.writes, silent.written_at_read.len()), (0, 1));

        // EOF right after a burst, and mid-frame: what was whole is answered.
        let mut stream = Scripted::new([Step::Bytes(concat([
            challenge(1),
            challenge(2)[..5].to_vec(),
        ]))]);
        serve_frames(&mut stream, answer);
        assert_eq!(stream.out.writes, 1);
        assert_eq!(stream.out.written, answers([1]));
    }

    /// `serve_frames` as it was before the scratch envelope: one owned
    /// [`Envelope::from_bytes`] per frame. The reference the
    /// allocation-free loop is checked against.
    fn serve_frames_by_copy<S: Read + Write>(
        mut stream: S,
        mut respond: impl FnMut(DeviceId, &Envelope) -> Option<Vec<u8>>,
    ) {
        let mut deframer = StreamDeframer::new();
        let mut burst = Vec::new();
        loop {
            let framing_broken = loop {
                match deframer.next_frame() {
                    Ok(Some(frame)) => {
                        let Ok(envelope) = Envelope::from_bytes(frame) else {
                            continue;
                        };
                        if let Some(response) = respond(DeviceId(envelope.device_id), &envelope) {
                            frame_stream_into(&mut burst, &response);
                        }
                    }
                    Ok(None) => break false,
                    Err(_) => break true,
                }
            };
            if !burst.is_empty() {
                if stream.write_all(&burst).is_err() {
                    return;
                }
                burst.clear();
            }
            if framing_broken {
                return;
            }
            match pump_read(&mut stream, &mut deframer) {
                ReadPump::Bytes(_) | ReadPump::Idle => {}
                ReadPump::Closed | ReadPump::Broken => return,
            }
        }
    }

    proptest::proptest! {
        /// Over random frame sequences — challenges of varying size,
        /// silent devices, garbled envelopes, envelopes with trailing
        /// bytes and an occasional oversized prefix — cut into reads at
        /// random points, the scratch-envelope loop writes exactly the
        /// bytes of the copying reference, in the same writes, and
        /// hands `respond` the same envelopes.
        #[test]
        fn serve_frames_writes_what_the_copying_loop_wrote(
            frames in proptest::collection::vec((0u64..10, 0u8..6, 0usize..40), 0..24),
            cuts in proptest::collection::vec(1usize..120, 1..16),
        ) {
            let mut wire = Vec::new();
            for &(id, kind, len) in &frames {
                let mut envelope = Envelope::wrap(id, vec![id as u8 ^ len as u8; len]).to_bytes();
                match kind {
                    0 => envelope[1] ^= 0x5A,      // garbled header
                    1 => envelope.push(0),          // trailing byte
                    2 if len == 39 => {
                        // Oversized prefix: framing is lost for good.
                        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
                        continue;
                    }
                    _ => {}
                }
                wire.extend(frame_stream(&envelope));
            }
            let mut reads = Vec::new();
            let mut rest = wire.as_slice();
            for &cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                reads.push(Step::Bytes(head.to_vec()));
                if cut % 5 == 0 {
                    reads.push(Step::NotReady);
                }
                rest = tail;
            }
            let script = || reads.iter().map(|step| match step {
                Step::Bytes(bytes) => Step::Bytes(bytes.clone()),
                Step::NotReady => Step::NotReady,
            });
            let mut seen = (Vec::new(), Vec::new());
            let mut scratch = Scripted::new(script());
            serve_frames(&mut scratch, |id, envelope| {
                seen.0.push(envelope.clone());
                answer(id, envelope)
            });
            let mut copying = Scripted::new(script());
            serve_frames_by_copy(&mut copying, |id, envelope| {
                seen.1.push(envelope.clone());
                answer(id, envelope)
            });
            proptest::prop_assert_eq!(&seen.0, &seen.1);
            proptest::prop_assert_eq!(&scratch.out.written, &copying.out.written);
            proptest::prop_assert_eq!(scratch.out.writes, copying.out.writes);
            proptest::prop_assert_eq!(scratch.written_at_read, copying.written_at_read);
        }
    }

    #[test]
    fn pump_read_maps_io_outcomes() {
        let mut deframer = StreamDeframer::new();
        let mut eof: &[u8] = &[];
        assert_eq!(pump_read(&mut eof, &mut deframer), ReadPump::Closed);

        struct NotReady;
        impl Read for NotReady {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(ErrorKind::WouldBlock.into())
            }
        }
        assert_eq!(pump_read(&mut NotReady, &mut deframer), ReadPump::Idle);

        let mut bytes: &[u8] = &[1, 2, 3];
        assert_eq!(pump_read(&mut bytes, &mut deframer), ReadPump::Bytes(3));
        assert_eq!(deframer.pending(), 3);
    }
}
