//! SW-Att: the trusted attestation routine resident in ROM.
//!
//! VRASED ships SW-Att as immutable code in ROM; its functional core is
//! `HMAC-SHA256(K, challenge ‖ measured regions)`. Here the routine runs
//! natively when the simulated `PC` traps onto the ROM entry point
//! (`attest` below is the functional core; the device layer in the `asap`
//! crate drives the trap, synthesizes the corresponding bus signals so
//! the monitors observe the ROM execution, and charges the cycle cost).
//!
//! The measured transcript is canonical and collision-free:
//! `label ‖ start ‖ len` frames every region, so distinct region
//! geometries can never produce identical transcripts.
//!
//! The host computes the MAC with whatever SHA-256 backend its CPU
//! offers, from key midstates cached in an [`HmacKey`]. Neither touches
//! the modelled device time: [`swatt_cycle_cost`] depends only on the
//! number of measured bytes.

use crate::props::PropCtx;
use openmsp430::mem::Memory;
use pox_crypto::hmac::HmacKey;

/// Size of the verifier challenge in bytes.
pub const CHAL_LEN: usize = 16;

/// Size of the attestation result (HMAC-SHA256 tag).
pub const MAC_LEN: usize = 32;

/// A measured item: a label plus bytes (either a memory region, with its
/// start address, or a direct value such as the `EXEC` flag), borrowed
/// from wherever they live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredItem<'a> {
    /// Domain-separation label.
    pub label: &'a str,
    /// Region start (0 for direct values).
    pub start: u16,
    /// The measured bytes.
    pub bytes: &'a [u8],
}

impl<'a> MeasuredItem<'a> {
    /// Measures a direct value.
    pub fn value(label: &'a str, bytes: &'a [u8]) -> MeasuredItem<'a> {
        MeasuredItem {
            label,
            start: 0,
            bytes,
        }
    }
}

/// Domain-separation prefix of every SW-Att transcript.
const TRANSCRIPT_TAG: &[u8] = b"VRASED-SWATT-v1";

/// Largest transcript [`attest`] stages on the stack and hashes with
/// one `update`; fig4's ASAP transcript is 231 bytes. A larger one is
/// streamed item by item.
const STAGE_LEN: usize = 512;

/// Computes the attestation MAC over a challenge and measured items.
///
/// This is the functional core of SW-Att; both the prover (over its real
/// memory) and the verifier (over expected contents) call it. The MAC
/// covers the canonical transcript `VRASED-SWATT-v1 ‖ chal ‖` then, per
/// item, `label len (u32 LE) ‖ label ‖ start (u16 LE) ‖ len (u32 LE) ‖
/// bytes`. A transcript of at most `STAGE_LEN` (512) bytes is written into
/// one stack buffer and hashed with a single `update`, which saves the
/// per-call buffering of a dozen small updates.
pub fn attest(key: &HmacKey, chal: &[u8; CHAL_LEN], items: &[MeasuredItem]) -> [u8; MAC_LEN] {
    let len = TRANSCRIPT_TAG.len()
        + CHAL_LEN
        + items
            .iter()
            .map(|i| 10 + i.label.len() + i.bytes.len())
            .sum::<usize>();
    if len > STAGE_LEN {
        return attest_streaming(key, chal, items);
    }
    let mut stage = [0u8; STAGE_LEN];
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        stage[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    put(TRANSCRIPT_TAG);
    put(chal);
    for item in items {
        put(&(item.label.len() as u32).to_le_bytes());
        put(item.label.as_bytes());
        put(&item.start.to_le_bytes());
        put(&(item.bytes.len() as u32).to_le_bytes());
        put(item.bytes);
    }
    let mut mac = key.begin();
    mac.update(&stage[..at]);
    mac.finalize()
}

/// The streaming form of [`attest`]: the same transcript, fed to the MAC
/// piece by piece. The reference the staged path is checked against,
/// and the path for transcripts too large to stage.
fn attest_streaming(key: &HmacKey, chal: &[u8; CHAL_LEN], items: &[MeasuredItem]) -> [u8; MAC_LEN] {
    let mut mac = key.begin();
    mac.update(TRANSCRIPT_TAG);
    mac.update(chal);
    for item in items {
        mac.update(&(item.label.len() as u32).to_le_bytes());
        mac.update(item.label.as_bytes());
        mac.update(&item.start.to_le_bytes());
        mac.update(&(item.bytes.len() as u32).to_le_bytes());
        mac.update(item.bytes);
    }
    mac.finalize()
}

/// Cycle cost model for the ROM routine: dominated by the HMAC
/// compression function at ~`COMPRESS_CYCLES` per 64-byte block, plus a
/// fixed setup cost. Values follow the order of magnitude VRASED reports
/// for HACL* HMAC on MSP430 (hundreds of cycles per byte).
pub fn swatt_cycle_cost(measured_bytes: usize) -> u64 {
    const SETUP_CYCLES: u64 = 2_000;
    const CYCLES_PER_BLOCK: u64 = 8_000;
    let blocks = (measured_bytes as u64).div_ceil(64).max(1);
    SETUP_CYCLES + blocks * CYCLES_PER_BLOCK
}

/// Reads the device key from its gated region (callable only by the
/// device layer while simulating SW-Att execution; the key-guard monitor
/// observes the access).
pub fn read_key(mem: &Memory, ctx: &PropCtx) -> Vec<u8> {
    mem.snapshot(ctx.layout.key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmsp430::layout::MemLayout;
    use openmsp430::mem::MemRegion;

    /// Measures `bytes`, read from `region`.
    fn measure<'a>(label: &'a str, region: MemRegion, bytes: &'a [u8]) -> MeasuredItem<'a> {
        MeasuredItem {
            label,
            start: region.start(),
            bytes,
        }
    }

    fn chal(seed: u8) -> [u8; CHAL_LEN] {
        [seed; CHAL_LEN]
    }

    #[test]
    fn deterministic_and_key_dependent() {
        let items = vec![MeasuredItem::value("exec", &[1])];
        let m1 = attest(&HmacKey::new(b"k1"), &chal(1), &items);
        let m2 = attest(&HmacKey::new(b"k1"), &chal(1), &items);
        let m3 = attest(&HmacKey::new(b"k2"), &chal(1), &items);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
    }

    #[test]
    fn challenge_freshness_changes_mac() {
        let items = vec![MeasuredItem::value("exec", &[1])];
        assert_ne!(
            attest(&HmacKey::new(b"k"), &chal(1), &items),
            attest(&HmacKey::new(b"k"), &chal(2), &items)
        );
    }

    #[test]
    fn content_binding() {
        let key = HmacKey::new(b"k");
        let mut mem = Memory::new();
        let region = MemRegion::new(0xE000, 0xE00F);
        let before = mem.snapshot(region);
        let m1 = attest(&key, &chal(1), &[measure("er", region, &before)]);
        mem.write_byte(0xE005, 0xFF);
        let after = mem.snapshot(region);
        let m2 = attest(&key, &chal(1), &[measure("er", region, &after)]);
        assert_ne!(m1, m2, "one flipped byte must change the MAC");
    }

    #[test]
    fn framing_prevents_region_splicing() {
        // (AB, C) and (A, BC) must measure differently.
        let i1 = vec![
            MeasuredItem::value("x", &[1, 2]),
            MeasuredItem::value("y", &[3]),
        ];
        let i2 = vec![
            MeasuredItem::value("x", &[1]),
            MeasuredItem::value("y", &[2, 3]),
        ];
        assert_ne!(
            attest(&HmacKey::new(b"k"), &chal(0), &i1),
            attest(&HmacKey::new(b"k"), &chal(0), &i2)
        );
    }

    #[test]
    fn start_address_is_bound() {
        let mut mem = Memory::new();
        mem.write_byte(0xE000, 7);
        mem.write_byte(0xF000, 7);
        let (ra, rb) = (
            MemRegion::new(0xE000, 0xE000),
            MemRegion::new(0xF000, 0xF000),
        );
        let (sa, sb) = (mem.snapshot(ra), mem.snapshot(rb));
        let (a, b) = (measure("er", ra, &sa), measure("er", rb, &sb));
        assert_ne!(
            attest(&HmacKey::new(b"k"), &chal(0), &[a]),
            attest(&HmacKey::new(b"k"), &chal(0), &[b])
        );
    }

    #[test]
    fn cycle_cost_scales_with_size() {
        assert!(swatt_cycle_cost(64) < swatt_cycle_cost(4096));
        assert!(
            swatt_cycle_cost(0) > 0,
            "setup cost is charged even for empty input"
        );
    }

    /// Labels the differential draws from, the empty one included.
    const LABELS: [&str; 5] = ["", "exec", "er", "or", "a-much-longer-label"];

    proptest::proptest! {
        /// Over random item sets, the staged [`attest`] yields exactly
        /// the streaming reference's MAC, on both sides of the stage
        /// bound: byte counts up to 300 per item over up to 6 items
        /// reach transcripts well past [`STAGE_LEN`].
        #[test]
        fn staged_attest_matches_streaming_reference(
            key in proptest::collection::vec(0u8..=255, 0..80),
            seed in 0u8..=255,
            items in proptest::collection::vec(
                (0usize..LABELS.len(), 0u16..=u16::MAX, proptest::collection::vec(0u8..=255, 0..300)),
                0..6,
            ),
        ) {
            let key = HmacKey::new(&key);
            let measured: Vec<MeasuredItem> = items
                .iter()
                .map(|(label, start, bytes)| MeasuredItem {
                    label: LABELS[*label],
                    start: *start,
                    bytes,
                })
                .collect();
            proptest::prop_assert_eq!(
                attest(&key, &chal(seed), &measured),
                attest_streaming(&key, &chal(seed), &measured)
            );
        }
    }

    #[test]
    fn stage_bound_is_exact() {
        // A transcript of exactly `STAGE_LEN` bytes is staged; one byte
        // more streams. Both must agree with the reference.
        let key = HmacKey::new(b"k");
        let fixed = TRANSCRIPT_TAG.len() + CHAL_LEN + 10 + "er".len();
        for extra in [0, 1] {
            let bytes = vec![0x5A; STAGE_LEN - fixed + extra];
            let items = [MeasuredItem::value("er", &bytes)];
            assert_eq!(
                attest(&key, &chal(3), &items),
                attest_streaming(&key, &chal(3), &items)
            );
        }
    }

    #[test]
    fn read_key_uses_layout_region() {
        let layout = MemLayout::default();
        let mut mem = Memory::new();
        mem.write_byte(layout.key.start(), 0xAA);
        let k = read_key(&mem, &PropCtx::new(layout));
        assert_eq!(k.len() as u32, layout.key.len());
        assert_eq!(k[0], 0xAA);
    }
}
