//! The verifier side of the PoX protocol: specs derived from the linked
//! image, and mode-aware verification of prover evidence.
//!
//! The centrepiece is [`VerifierSpec::from_image`]: everything the
//! verifier must agree with the prover about — the `ER` geometry and
//! bytes, the trusted-ISR entry points, the `OR` and IVT regions — is
//! derived from the *same linked [`Image`]* that is flashed onto the
//! device, so the two sides can never disagree about what "the expected
//! code" is. Hand-maintained ISR maps and copy-pasted `er_bytes()` are
//! gone, and with them the mis-binding bugs ASAP's security argument
//! (§4.2) assumes away.
//!
//! Under ASAP the attestation measurement additionally covers the IVT,
//! and the verifier checks that **every IVT entry pointing into `ER`
//! lands on the entry point of an expected, trusted ISR**. Any execution
//! of an unauthorized ISR would have required the PC to leave `ER`
//! (clearing `EXEC` per LTL 1), and any IVT re-routing after execution
//! started would have tripped \[AP1\] — so a valid response proves the
//! asynchronous behaviour was exactly the intended one.

use crate::device::PoxMode;
use crate::error::AsapError;
use crate::session::{Issued, PoxSession};
use apex_pox::protocol::{pox_items, PoxRequest, PoxResponse};
use msp430_tools::link::Image;
use openmsp430::cpu::IVT_VECTORS;
use openmsp430::layout::MemLayout;
use openmsp430::mem::MemRegion;
use pox_crypto::hmac::{ct_eq, HmacKey};
use std::collections::BTreeMap;
use vrased::protocol::Challenge;
use vrased::swatt::attest;

/// What the verifier expects of a provable deployment — derived from
/// the linked image rather than hand-assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifierSpec {
    /// The PoX architecture the device implements.
    pub mode: PoxMode,
    /// The executable region to request.
    pub er: MemRegion,
    /// The output region to request.
    pub or: MemRegion,
    /// The IVT region covered by ASAP attestations.
    pub ivt_region: MemRegion,
    /// Expected bytes of the linked `ER` (main task + trusted ISRs).
    pub expected_er: Vec<u8>,
    /// Trusted-ISR entry points: vector → address inside `ER`.
    pub trusted_isrs: BTreeMap<u8, u16>,
}

impl VerifierSpec {
    /// Derives a spec from a linked image, with the default
    /// [`MemLayout`] supplying the `OR` and IVT regions. Mode defaults
    /// to [`PoxMode::Asap`]; override with [`VerifierSpec::mode`].
    ///
    /// # Errors
    ///
    /// [`AsapError::NoEr`] when the image has no `exec.*` sections.
    ///
    /// # Examples
    ///
    /// ```
    /// use asap::programs;
    /// use asap::VerifierSpec;
    ///
    /// let image = programs::fig4_authorized()?;
    /// let spec = VerifierSpec::from_image(&image)?;
    /// // The trusted GPIO ISR was picked up from the image's IVT.
    /// assert_eq!(spec.trusted_isrs.len(), 1);
    /// assert_eq!(spec.expected_er.len() as u32, spec.er.len());
    /// # Ok::<(), asap::AsapError>(())
    /// ```
    pub fn from_image(image: &Image) -> Result<VerifierSpec, AsapError> {
        VerifierSpec::from_image_with_layout(image, MemLayout::default())
    }

    /// [`VerifierSpec::from_image`] with a custom layout — use when the
    /// device is built with
    /// [`DeviceBuilder::layout`](crate::device::DeviceBuilder::layout).
    ///
    /// # Errors
    ///
    /// [`AsapError::NoEr`] when the image has no `exec.*` sections.
    pub fn from_image_with_layout(
        image: &Image,
        layout: MemLayout,
    ) -> Result<VerifierSpec, AsapError> {
        let er = image.er.ok_or(AsapError::NoEr)?;

        // The ER bytes exactly as Image::load_into will lay them out:
        // chunks copied over zero-initialised memory (section alignment
        // gaps stay zero).
        let mut expected_er = vec![0u8; er.region.len() as usize];
        for (base, bytes) in &image.chunks {
            for (i, b) in bytes.iter().enumerate() {
                let addr = base.wrapping_add(i as u16);
                if er.region.contains(addr) {
                    expected_er[(addr - er.region.start()) as usize] = *b;
                }
            }
        }

        let trusted_isrs = image
            .ivt_entries
            .iter()
            .copied()
            .filter(|(_, target)| er.region.contains(*target))
            .collect();

        Ok(VerifierSpec {
            mode: PoxMode::Asap,
            er: er.region,
            or: layout.or,
            ivt_region: layout.ivt,
            expected_er,
            trusted_isrs,
        })
    }

    /// Selects the PoX architecture the deployment runs.
    pub fn mode(mut self, mode: PoxMode) -> VerifierSpec {
        self.mode = mode;
        self
    }
}

/// The immutable half of a verifier: the shared device key, held as its
/// HMAC midstates so no session re-derives the key pads, and the
/// image-derived spec. Kept behind an `Arc` so cloning a verifier (as
/// fleet registries do to run MAC checks outside their locks) is a
/// refcount bump, not a copy of the expected `ER` bytes. The spec is
/// its own `Arc` so a fleet deploying one image to a million devices
/// stores the expected `ER` bytes once, not once per device
/// ([`AsapVerifier::new_shared`]).
#[derive(Debug)]
struct VerifierCore {
    key: HmacKey,
    spec: std::sync::Arc<VerifierSpec>,
}

/// The verifier: holds the shared device key, a [`VerifierSpec`], and
/// the monotone challenge counter. Issue sessions with
/// [`AsapVerifier::begin`].
#[derive(Debug, Clone)]
pub struct AsapVerifier {
    core: std::sync::Arc<VerifierCore>,
    counter: u64,
}

impl AsapVerifier {
    /// Creates a verifier for a deployment described by `spec`.
    pub fn new(key: &[u8], spec: VerifierSpec) -> AsapVerifier {
        AsapVerifier::new_shared(key, std::sync::Arc::new(spec))
    }

    /// [`AsapVerifier::new`] over an already-shared spec. A fleet
    /// enrolling many devices of the same image passes one
    /// `Arc<VerifierSpec>` to every call, so the expected `ER` bytes
    /// exist once in memory no matter how many devices share them.
    pub fn new_shared(key: &[u8], spec: std::sync::Arc<VerifierSpec>) -> AsapVerifier {
        AsapVerifier {
            core: std::sync::Arc::new(VerifierCore {
                key: HmacKey::new(key),
                spec,
            }),
            counter: 0,
        }
    }

    /// A fresh verifier for the same deployment under a new device key:
    /// the spec allocation is shared with `self`, the challenge counter
    /// starts over (new key, new MAC domain — old challenges cannot
    /// collide with the new sequence).
    pub fn rekeyed(&self, key: &[u8]) -> AsapVerifier {
        AsapVerifier::new_shared(key, std::sync::Arc::clone(&self.core.spec))
    }

    /// The spec in force.
    pub fn spec(&self) -> &VerifierSpec {
        &self.core.spec
    }

    /// Number of sessions this verifier has issued so far — the current
    /// value of its challenge counter.
    pub fn sessions_issued(&self) -> u64 {
        self.counter
    }

    /// Opens a fresh PoX session: bumps the challenge counter and binds
    /// the spec's `ER`/`OR` geometry into the request.
    ///
    /// The challenge counter is **per-verifier state**, not global: two
    /// `AsapVerifier`s constructed alike will issue the same challenge
    /// sequence, so a deployment must hold exactly one verifier per
    /// device key (as [`asap_fleet`'s registry] does). Within one
    /// verifier the counter is monotone, which means:
    ///
    /// * any number of sessions may be in flight concurrently — each
    ///   `begin` call gets a distinct challenge, and evidence can only
    ///   conclude the session whose challenge it was computed under;
    /// * evidence bound to a superseded (stale) challenge fails the
    ///   fresh session's MAC check and is rejected with
    ///   [`AsapError::BadMac`].
    ///
    /// [`asap_fleet`'s registry]: https://docs.rs/asap-fleet
    pub fn begin(&mut self) -> PoxSession<Issued> {
        self.counter += 1;
        PoxSession::issue(PoxRequest {
            chal: Challenge::from_counter(self.counter),
            er: self.core.spec.er,
            or: self.core.spec.or,
        })
    }

    /// Parses an IVT byte image into vector → target pairs.
    pub fn parse_ivt(bytes: &[u8]) -> Vec<(u8, u16)> {
        bytes
            .chunks(2)
            .take(IVT_VECTORS as usize)
            .enumerate()
            .map(|(i, c)| (i as u8, u16::from_le_bytes([c[0], *c.get(1).unwrap_or(&0)])))
            .collect()
    }

    /// Fails with the first IVT entry, in vector order, that points into
    /// `er` but is not the trusted ISR entry point of its vector. Walks
    /// the IVT bytes in place, decoding entries as
    /// [`parse_ivt`](AsapVerifier::parse_ivt) does.
    fn check_isr_entries(spec: &VerifierSpec, er: MemRegion, ivt: &[u8]) -> Result<(), AsapError> {
        for (vector, entry) in ivt.chunks(2).take(IVT_VECTORS as usize).enumerate() {
            let target = u16::from_le_bytes([entry[0], entry.get(1).copied().unwrap_or(0)]);
            let vector = vector as u8;
            if er.contains(target) && spec.trusted_isrs.get(&vector) != Some(&target) {
                return Err(AsapError::UnexpectedIsrEntry { vector, target });
            }
        }
        Ok(())
    }

    /// Renders vector → target pairs back into an IVT byte image of
    /// `IVT_VECTORS` entries (the inverse of [`AsapVerifier::parse_ivt`]
    /// for in-range vectors).
    pub fn render_ivt(entries: &[(u8, u16)]) -> Vec<u8> {
        let mut bytes = vec![0u8; 2 * IVT_VECTORS as usize];
        for (vector, target) in entries {
            if *vector < IVT_VECTORS {
                let at = 2 * *vector as usize;
                bytes[at..at + 2].copy_from_slice(&target.to_le_bytes());
            }
        }
        bytes
    }

    /// Judges a response against a request this verifier issued.
    ///
    /// Checks, in order: `EXEC = 1`; the IVT report matches the mode
    /// (present under ASAP, absent under APEX); every IVT entry pointing
    /// into `ER` matches a trusted-ISR entry point; and the MAC binds
    /// `EXEC ‖ ER(expected) ‖ OR(claimed) (‖ IVT(reported))` under the
    /// session's challenge.
    pub(crate) fn check(&self, req: &PoxRequest, resp: &PoxResponse) -> Result<(), AsapError> {
        let spec = &self.core.spec;
        if !resp.exec {
            return Err(AsapError::NotExecuted);
        }
        let ivt = match (spec.mode, resp.ivt.as_ref()) {
            (PoxMode::Asap, Some(bytes)) => {
                Self::check_isr_entries(spec, req.er, bytes)?;
                Some((spec.ivt_region, bytes.as_slice()))
            }
            (PoxMode::Asap, None) => return Err(AsapError::MissingIvt),
            (PoxMode::Apex, Some(_)) => return Err(AsapError::UnexpectedIvt),
            (PoxMode::Apex, None) => None,
        };

        let items = pox_items(true, req.er, &spec.expected_er, req.or, &resp.output, ivt);
        let want = attest(&self.core.key, req.chal.as_bytes(), &items);
        if !ct_eq(&want, &resp.mac) {
            return Err(AsapError::BadMac);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionOutcome;

    const KEY: &[u8] = b"k";

    fn spec(mode: PoxMode, trusted: &[(u8, u16)]) -> VerifierSpec {
        VerifierSpec {
            mode,
            er: MemRegion::new(0xE000, 0xE0FF),
            or: MemRegion::new(0x0300, 0x033F),
            ivt_region: MemRegion::new(0xFFE0, 0xFFFF),
            expected_er: vec![0xAA; 256],
            trusted_isrs: trusted.iter().copied().collect(),
        }
    }

    fn ivt_with(vector: u8, target: u16) -> Vec<u8> {
        AsapVerifier::render_ivt(&[(vector, target)])
    }

    /// A prover that measured honestly: contents match the spec.
    fn honest(
        vrf: &AsapVerifier,
        req: &PoxRequest,
        ivt: Option<Vec<u8>>,
        out: &[u8],
    ) -> PoxResponse {
        let items = pox_items(
            true,
            req.er,
            &vrf.spec().expected_er,
            req.or,
            out,
            ivt.as_ref().map(|b| (vrf.spec().ivt_region, b.as_slice())),
        );
        let mac = attest(&HmacKey::new(KEY), req.chal.as_bytes(), &items);
        PoxResponse {
            exec: true,
            output: out.to_vec(),
            ivt,
            mac,
        }
    }

    fn conclude(vrf: &mut AsapVerifier, ivt: Option<Vec<u8>>, out: &[u8]) -> SessionOutcome {
        let session = vrf.begin();
        let resp = honest(vrf, session.request(), ivt, out);
        session.evidence(resp).conclude(vrf)
    }

    #[test]
    fn honest_asap_session_verifies() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[(2, 0xE020)]));
        let outcome = conclude(&mut vrf, Some(ivt_with(2, 0xE020)), b"out");
        let attested = outcome.into_result().expect("verifies");
        assert_eq!(attested.output, b"out");
        assert!(attested.ivt.is_some());
    }

    #[test]
    fn honest_apex_session_verifies() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Apex, &[]));
        assert!(conclude(&mut vrf, None, b"out").is_verified());
    }

    #[test]
    fn ivt_entry_into_er_must_match_trusted_isr() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[(2, 0xE020)]));
        // Vector 2 re-routed to a different in-ER address: a gadget jump.
        let outcome = conclude(&mut vrf, Some(ivt_with(2, 0xE050)), b"out");
        assert_eq!(
            outcome.err(),
            Some(&AsapError::UnexpectedIsrEntry {
                vector: 2,
                target: 0xE050
            })
        );
    }

    #[test]
    fn unknown_vector_into_er_rejected() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        let outcome = conclude(&mut vrf, Some(ivt_with(9, 0xE004)), b"out");
        assert!(matches!(
            outcome.err(),
            Some(&AsapError::UnexpectedIsrEntry { vector: 9, .. })
        ));
    }

    #[test]
    fn vectors_outside_er_are_unconstrained() {
        // Untrusted ISRs may exist — they simply clear EXEC if they run.
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        assert!(conclude(&mut vrf, Some(ivt_with(9, 0xF800)), b"out").is_verified());
    }

    #[test]
    fn missing_ivt_rejected_under_asap() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        let outcome = conclude(&mut vrf, None, b"out");
        assert_eq!(outcome.err(), Some(&AsapError::MissingIvt));
    }

    #[test]
    fn unexpected_ivt_rejected_under_apex() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Apex, &[]));
        let outcome = conclude(&mut vrf, Some(vec![0u8; 32]), b"out");
        assert_eq!(outcome.err(), Some(&AsapError::UnexpectedIvt));
    }

    #[test]
    fn tampered_ivt_report_fails_mac() {
        // The prover cannot report a clean IVT if the measured one was
        // dirty: the MAC binds the measured bytes.
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        let session = vrf.begin();
        let mut resp = honest(&vrf, session.request(), Some(ivt_with(9, 0xF800)), b"out");
        resp.ivt = Some(vec![0u8; 32]); // forged report
        let outcome = session.evidence(resp).conclude(&vrf);
        assert_eq!(outcome.err(), Some(&AsapError::BadMac));
    }

    #[test]
    fn exec_zero_rejected() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        let session = vrf.begin();
        let mut resp = honest(&vrf, session.request(), Some(vec![0u8; 32]), b"out");
        resp.exec = false;
        let outcome = session.evidence(resp).conclude(&vrf);
        assert_eq!(outcome.err(), Some(&AsapError::NotExecuted));
    }

    #[test]
    fn concurrent_sessions_get_distinct_challenges() {
        // The counter is per-verifier: sessions opened before earlier
        // ones conclude still receive fresh, pairwise-distinct
        // challenges, and each session's evidence only concludes the
        // session it was computed for.
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        assert_eq!(vrf.sessions_issued(), 0);
        let first = vrf.begin();
        let second = vrf.begin();
        let third = vrf.begin();
        assert_eq!(vrf.sessions_issued(), 3);
        assert_ne!(first.request().chal, second.request().chal);
        assert_ne!(second.request().chal, third.request().chal);
        assert_ne!(first.request().chal, third.request().chal);

        // Evidence for session two concludes session two even with one
        // and three still open…
        let resp2 = honest(&vrf, second.request(), Some(vec![0u8; 32]), b"two");
        assert!(second.evidence(resp2.clone()).conclude(&vrf).is_verified());
        // …and cannot conclude session three.
        let outcome = third.evidence(resp2).conclude(&vrf);
        assert_eq!(outcome.err(), Some(&AsapError::BadMac));
    }

    #[test]
    fn stale_evidence_fails_fresh_session() {
        // A response computed for session N cannot conclude session N+1:
        // the challenge differs, so the MAC check fails.
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        let first = vrf.begin();
        let stale = honest(&vrf, first.request(), Some(vec![0u8; 32]), b"out");
        let _abandoned = first; // session N is never concluded
        let second = vrf.begin();
        let outcome = second.evidence(stale).conclude(&vrf);
        assert_eq!(outcome.err(), Some(&AsapError::BadMac));
    }

    #[test]
    fn sessions_cross_a_byte_transport() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        let session = vrf.begin();
        // Round-trip the request through its wire form, as a transport
        // would, and check the prover sees the identical request.
        let req = PoxRequest::from_bytes(&session.request_bytes()).unwrap();
        assert_eq!(&req, session.request());
        let resp = honest(&vrf, &req, Some(vec![0u8; 32]), b"out");
        let session = session.evidence_bytes(&resp.to_bytes()).unwrap();
        assert!(session.conclude(&vrf).is_verified());
    }

    #[test]
    fn garbled_evidence_bytes_are_a_wire_error() {
        let mut vrf = AsapVerifier::new(KEY, spec(PoxMode::Asap, &[]));
        let session = vrf.begin();
        assert!(matches!(
            session.evidence_bytes(b"not a response"),
            Err(AsapError::Wire(_))
        ));
    }

    #[test]
    fn parse_ivt_layout_and_render_inverse() {
        let bytes = ivt_with(15, 0xE000);
        let entries = AsapVerifier::parse_ivt(&bytes);
        assert_eq!(entries.len(), 16);
        assert_eq!(entries[15], (15, 0xE000));
        assert_eq!(entries[0], (0, 0x0000));
        assert_eq!(AsapVerifier::render_ivt(&entries), bytes);
    }

    /// The reference the in-place walk replaced: collect
    /// [`AsapVerifier::parse_ivt`], then scan it.
    fn first_unexpected_by_parse(
        spec: &VerifierSpec,
        er: MemRegion,
        ivt: &[u8],
    ) -> Result<(), AsapError> {
        for (vector, target) in AsapVerifier::parse_ivt(ivt) {
            if er.contains(target) && spec.trusted_isrs.get(&vector) != Some(&target) {
                return Err(AsapError::UnexpectedIsrEntry { vector, target });
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// For random IVTs — odd lengths, lengths past `IVT_VECTORS`
        /// entries, targets in and out of `ER`, trusted and untrusted —
        /// the in-place walk reports the same first
        /// `UnexpectedIsrEntry` as the `parse_ivt` reference.
        #[test]
        fn ivt_walk_matches_parse_ivt(
            entries in proptest::collection::vec((0u8..4, 0u16..=u16::MAX), 0..20),
            odd in 0u8..=255,
            trusted in proptest::collection::vec((0u8..20, 0u8..4), 0..6),
        ) {
            // Targets drawn from a few classes so both verdicts occur.
            let target = |class: u8, raw: u16| match class {
                0 => 0xE000 + raw % 0x100, // inside ER
                1 => 0xE020,               // inside ER, often trusted
                2 => 0xE0FF + raw % 2,     // ER's last byte and one past
                _ => raw,
            };
            let mut ivt: Vec<u8> = entries
                .iter()
                .flat_map(|&(class, raw)| target(class, raw).to_le_bytes())
                .collect();
            if odd % 2 == 1 {
                ivt.push(odd);
            }
            let trusted: Vec<(u8, u16)> = trusted
                .iter()
                .map(|&(vector, class)| (vector, target(class, u16::from(vector))))
                .collect();
            let spec = spec(PoxMode::Asap, &trusted);
            proptest::prop_assert_eq!(
                AsapVerifier::check_isr_entries(&spec, spec.er, &ivt),
                first_unexpected_by_parse(&spec, spec.er, &ivt)
            );
        }
    }

    #[test]
    fn spec_from_image_matches_device_er() {
        use crate::device::Device;
        use crate::programs;

        let image = programs::fig4_authorized().unwrap();
        let spec = VerifierSpec::from_image(&image).unwrap();
        let device = Device::builder(&image).key(KEY).build().unwrap();
        assert_eq!(
            spec.expected_er,
            device.er_bytes(),
            "image-derived ER = flashed ER"
        );
        assert_eq!(spec.er, device.er().region);
        let isr = image.symbol("gpio_isr").unwrap();
        assert_eq!(
            spec.trusted_isrs,
            [(periph::gpio::PORT1_VECTOR, isr)].into()
        );
    }
}
