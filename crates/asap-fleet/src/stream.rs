//! The non-blocking stream halves every socket speaker in this crate
//! is built from, plus the prover-side glue for hosting simulated
//! devices behind a socket.
//!
//! * **The halves** — [`pump_read`] (one non-blocking read attempt into
//!   a [`StreamDeframer`], every outcome named by [`ReadPump`]) and
//!   [`WriteQueue`] (a bounded byte queue flushed with partial-write
//!   backpressure, outcomes named by [`WritePump`]). These are the
//!   *only* places raw socket reads and writes happen: the
//!   [`FleetRuntime`](crate::FleetRuntime) reactors and the prover loop
//!   share them, so framing behaviour cannot drift between the two
//!   ends.
//! * **The prover side** — [`announce_devices`] and [`serve_frames`]
//!   are what examples, tests and benches run simulated devices behind
//!   when they play an out-of-process prover host.

use crate::DeviceId;
use apex_pox::wire::{frame_stream, Envelope, StreamDeframer, MAX_FRAME_LEN};
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
/// half. Never loops waiting for data: a non-blocking socket yields
/// [`ReadPump::Idle`] immediately, a timeout-configured one after at
/// most its read timeout. `Interrupted` is retried, since it carries no
/// information about the stream.
pub fn pump_read<S: Read + ?Sized>(stream: &mut S, deframer: &mut StreamDeframer) -> ReadPump {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return ReadPump::Closed,
            Ok(n) => {
                deframer.extend(&chunk[..n]);
                return ReadPump::Bytes(n);
            }
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
/// [`Envelope`] with an empty payload — per id. The runtime never
/// judges a hello; it only learns "frames for this device go to this
/// connection", which is how challenges find provers that dialed in.
///
/// # Errors
///
/// Any write error from the stream.
pub fn announce_devices<S: Write>(stream: &mut S, ids: &[DeviceId]) -> std::io::Result<()> {
    for &id in ids {
        stream.write_all(&frame_stream(&Envelope::wrap(id.0, Vec::new()).to_bytes()))?;
    }
    stream.flush()
}

/// Prover-side frame loop: reads [`frame_stream`]-framed envelopes off
/// `stream`, hands each to `respond`, and writes back every frame the
/// handler returns (`None` models a device that stays silent). Returns
/// when the peer hangs up or the framing breaks.
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
    loop {
        match deframer.next_frame() {
            Ok(Some(frame)) => {
                let Ok(envelope) = Envelope::from_bytes(&frame) else {
                    continue; // A prover ignores garbled frames.
                };
                let id = DeviceId(envelope.device_id);
                if let Some(response) = respond(id, &envelope) {
                    if stream.write_all(&frame_stream(&response)).is_err() {
                        return;
                    }
                }
                continue;
            }
            Ok(None) => {}
            Err(_) => return, // Oversized frame: boundaries are lost.
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
            assert_eq!(&frame_stream(&got), frame, "frame {d} round-trips");
        }
        assert!(matches!(deframer.next_frame(), Ok(None)), "no residue");
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
