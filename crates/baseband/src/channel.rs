//! Radio channel models.
//!
//! The paper's main evaluation assumes an **ideal** radio environment (no
//! transmission errors, no retransmissions). Its future-work section asks
//! for evaluation under a non-ideal radio; the [`BerChannel`] model supports
//! that extension bench: every baseband packet is lost independently with a
//! probability derived from a uniform bit error rate over the packet's
//! on-air bits.

use crate::packet::PacketType;
use btgs_des::DetRng;

/// Decides the fate of each transmitted baseband packet.
pub trait ChannelModel {
    /// Returns `true` if a packet of type `ty` carrying `payload_bytes`
    /// payload bytes is delivered intact.
    fn deliver(&mut self, ty: PacketType, payload_bytes: usize) -> bool;
}

/// The ideal (error-free) channel of the paper's §3 assumptions.
///
/// # Examples
///
/// ```
/// use btgs_baseband::{ChannelModel, IdealChannel, PacketType};
///
/// let mut ch = IdealChannel;
/// assert!(ch.deliver(PacketType::Dh3, 176));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdealChannel;

impl ChannelModel for IdealChannel {
    fn deliver(&mut self, _ty: PacketType, _payload_bytes: usize) -> bool {
        true
    }
}

/// A uniform bit-error-rate channel.
///
/// A packet with `n` on-air bits survives with probability `(1-ber)^n`.
/// On-air bits include the access code and header (126 bits of overhead,
/// with the 1/3-FEC-protected 18-bit header counted post-FEC as corrected)
/// plus the FEC-expanded payload. FEC-protected payloads (DM/HV1/HV2)
/// are modelled with an effective 4× reduction in residual error rate,
/// a standard first-order approximation for (15,10) shortened Hamming
/// correction at low BER.
#[derive(Clone, Debug)]
pub struct BerChannel {
    ber: f64,
    rng: DetRng,
    transmitted: u64,
    lost: u64,
}

impl BerChannel {
    /// Creates a channel with the given bit error rate in `[0, 1)` and a
    /// deterministic RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `[0, 1)`.
    pub fn new(ber: f64, rng: DetRng) -> Self {
        assert!((0.0..1.0).contains(&ber), "BER must be in [0,1), got {ber}");
        BerChannel {
            ber,
            rng,
            transmitted: 0,
            lost: 0,
        }
    }

    /// The configured bit error rate.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Packets pushed through this channel so far.
    pub fn transmitted(&self) -> u64 {
        self.transmitted
    }

    /// Packets lost so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Probability that a packet of type `ty` with `payload_bytes` payload
    /// is delivered intact.
    pub fn delivery_probability(&self, ty: PacketType, payload_bytes: usize) -> f64 {
        // 72-bit access code + 54 on-air header bits. The header is 1/3-FEC
        // protected; treat it as fully corrected at the BERs of interest and
        // count the unprotected access code + payload.
        const OVERHEAD_BITS: f64 = 72.0;
        let effective_ber = if ty.is_fec_protected() {
            self.ber / 4.0
        } else {
            self.ber
        };
        let payload_bits = payload_bytes as f64 * 8.0;
        let bits = OVERHEAD_BITS + payload_bits;
        (1.0 - effective_ber).powf(bits)
    }
}

impl ChannelModel for BerChannel {
    fn deliver(&mut self, ty: PacketType, payload_bytes: usize) -> bool {
        self.transmitted += 1;
        let p = self.delivery_probability(ty, payload_bytes);
        let ok = self.rng.chance(p);
        if !ok {
            self.lost += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_always_delivers() {
        let mut ch = IdealChannel;
        for ty in PacketType::ACL_DATA {
            assert!(ch.deliver(ty, ty.payload_capacity()));
        }
        assert!(ch.deliver(PacketType::Poll, 0));
    }

    #[test]
    fn zero_ber_always_delivers() {
        let mut ch = BerChannel::new(0.0, DetRng::seed_from_u64(1));
        for _ in 0..1000 {
            assert!(ch.deliver(PacketType::Dh3, 183));
        }
        assert_eq!(ch.lost(), 0);
        assert_eq!(ch.transmitted(), 1000);
    }

    #[test]
    fn loss_rate_tracks_theory() {
        let ber = 1e-4;
        let mut ch = BerChannel::new(ber, DetRng::seed_from_u64(2));
        let n = 50_000;
        let mut delivered = 0u64;
        for _ in 0..n {
            if ch.deliver(PacketType::Dh3, 176) {
                delivered += 1;
            }
        }
        let p_theory = ch.delivery_probability(PacketType::Dh3, 176);
        let p_obs = delivered as f64 / n as f64;
        assert!(
            (p_obs - p_theory).abs() < 0.01,
            "observed {p_obs}, theory {p_theory}"
        );
        assert_eq!(ch.transmitted(), n);
        assert_eq!(ch.lost(), n - delivered);
    }

    #[test]
    fn bigger_packets_are_more_fragile() {
        let ch = BerChannel::new(1e-3, DetRng::seed_from_u64(3));
        let p_small = ch.delivery_probability(PacketType::Dh1, 27);
        let p_big = ch.delivery_probability(PacketType::Dh5, 339);
        assert!(p_small > p_big);
    }

    #[test]
    fn fec_helps() {
        let ch = BerChannel::new(1e-3, DetRng::seed_from_u64(4));
        let p_dm = ch.delivery_probability(PacketType::Dm1, 17);
        let p_dh = ch.delivery_probability(PacketType::Dh1, 17);
        assert!(p_dm > p_dh);
    }

    #[test]
    #[should_panic(expected = "BER must be in")]
    fn invalid_ber_panics() {
        let _ = BerChannel::new(1.5, DetRng::seed_from_u64(5));
    }
}
