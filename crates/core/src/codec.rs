//! Compact binary serialization of [`FreqSketch`].
//!
//! Mergeable summaries matter because they move between machines (§3's
//! motivating scenarios: per-hour summaries at query time, partitioned
//! processing, geo-distributed aggregation). That requires a stable wire
//! format. The encoding below is little-endian, versioned, and stores only
//! the assigned counters — an underfilled sketch of capacity 24 576 costs a
//! few hundred bytes on the wire, not 576 KiB.
//!
//! The codec is implemented on the `u64` instantiation of the generic
//! engine ([`SketchEngine<u64>`]), so every `u64`-keyed summary — a
//! [`FreqSketch`], a [`crate::ShardedSketch`] shard, or a merged export —
//! serializes identically. The byte layout is unchanged from the
//! pre-engine implementation (pinned by the round-trip tests below).
//!
//! ## Layout (version 1)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"SFQ1"` |
//! | 4      | 1    | format version (`1`) |
//! | 5      | 1    | policy tag (0 = SampleQuantile, 1 = ExactKStar, 2 = GlobalMin) |
//! | 6      | 2    | flags (bit 0: stream weight saturated; bit 1: error offset saturated; rest reserved, zero) |
//! | 8      | 8    | `max_counters` |
//! | 16     | 8    | `seed` |
//! | 24     | 8    | `offset` (cumulative decrement) |
//! | 32     | 8    | `stream_weight` |
//! | 40     | 8    | `num_updates` |
//! | 48     | 8    | `num_purges` |
//! | 56     | 8    | policy parameter A (`sample_size`, or `fraction` bits) |
//! | 64     | 8    | policy parameter B (`quantile` bits, else zero) |
//! | 72     | 32   | purge-sampler state (xoshiro256\*\* state words) |
//! | 104    | 4    | `num_active` |
//! | 108    | 16·n | `num_active` × (item `u64`, count `u64`) |
//!
//! Deserialization reconstructs the counter table by re-inserting the
//! pairs. Because the item hash is deterministic ([`crate::hashing`]),
//! every answer (estimates, bounds, maximum error, frequent items)
//! matches the original at round-trip time, and the sampler state travels
//! along. The slot layout does not: re-insertion changes where counters
//! sit. Continued updating therefore stays identical to the original only
//! while at most ℓ counters are live (ℓ is the sampling policy's sample
//! size, 1024 for SMED/SMIN), because a purge then reads every counter.
//! With more live counters the sampling policies pick sample slots by
//! position, and the round-tripped sketch can purge differently. The
//! slot-exact checkpoint format ([`crate::persist::checkpoint`]) is the
//! encoding that preserves continuation.

use bytes::{Buf, BufMut};

use crate::engine::{SketchEngine, SketchEngineBuilder};
use crate::error::Error;
use crate::purge::PurgePolicy;
use crate::rng::Xoshiro256StarStar;
use crate::sketch::FreqSketch;

const MAGIC: &[u8; 4] = b"SFQ1";
const VERSION: u8 = 1;
const HEADER_LEN: usize = 108;

/// Wire tag of a [`PurgePolicy`] (shared by every streamfreq encoding:
/// the `u64` sketch format, the items format, and downstream container
/// formats such as the apps crate's windowed bucket store).
pub fn policy_tag(policy: &PurgePolicy) -> u8 {
    match policy {
        PurgePolicy::SampleQuantile { .. } => 0,
        PurgePolicy::ExactKStar { .. } => 1,
        PurgePolicy::GlobalMin => 2,
    }
}

/// The two wire parameter words accompanying a policy tag — see
/// [`policy_tag`]; the meaning of each word depends on the variant.
pub fn policy_params(policy: &PurgePolicy) -> (u64, u64) {
    match *policy {
        PurgePolicy::SampleQuantile {
            sample_size,
            quantile,
        } => (sample_size as u64, quantile.to_bits()),
        PurgePolicy::ExactKStar { fraction } => (fraction.to_bits(), 0),
        PurgePolicy::GlobalMin => (0, 0),
    }
}

/// Reconstructs a validated [`PurgePolicy`] from its wire tag and
/// parameter words (inverse of [`policy_tag`] / [`policy_params`]).
///
/// # Errors
/// Returns [`Error::Corrupt`] for unknown tags or invalid parameters.
pub fn policy_from_wire(tag: u8, a: u64, b: u64) -> Result<PurgePolicy, Error> {
    let policy = match tag {
        0 => PurgePolicy::SampleQuantile {
            sample_size: usize::try_from(a)
                .map_err(|_| Error::Corrupt("sample_size exceeds usize".into()))?,
            quantile: f64::from_bits(b),
        },
        1 => PurgePolicy::ExactKStar {
            fraction: f64::from_bits(a),
        },
        2 => PurgePolicy::GlobalMin,
        other => return Err(Error::Corrupt(format!("unknown policy tag {other}"))),
    };
    policy.validate().map_err(Error::Corrupt)?;
    Ok(policy)
}

impl SketchEngine<u64> {
    /// Serializes the engine into a fresh byte vector (format version 1).
    pub fn serialize_to_bytes(&self) -> Vec<u8> {
        let num_active = self.table.num_active();
        let mut out = Vec::with_capacity(HEADER_LEN + 16 * num_active);
        out.put_slice(MAGIC);
        out.put_u8(VERSION);
        out.put_u8(policy_tag(&self.policy));
        out.put_u16_le(u16::from(self.weight_saturated) | u16::from(self.offset_saturated) << 1);
        out.put_u64_le(self.max_counters as u64);
        out.put_u64_le(self.seed);
        out.put_u64_le(self.offset);
        out.put_u64_le(self.stream_weight);
        out.put_u64_le(self.num_updates);
        out.put_u64_le(self.num_purges);
        let (a, b) = policy_params(&self.policy);
        out.put_u64_le(a);
        out.put_u64_le(b);
        for word in self.rng.state() {
            out.put_u64_le(word);
        }
        out.put_u32_le(num_active as u32);
        for (&item, count) in self.table.iter() {
            out.put_u64_le(item);
            out.put_u64_le(count as u64);
        }
        out
    }

    /// Reconstructs an engine serialized by [`Self::serialize_to_bytes`].
    ///
    /// # Errors
    /// Returns [`Error::Corrupt`], [`Error::UnsupportedVersion`] or
    /// [`Error::Truncated`] for malformed input. Trailing bytes after the
    /// encoded sketch are rejected as corruption.
    pub fn deserialize_from_bytes(bytes: &[u8]) -> Result<SketchEngine<u64>, Error> {
        let mut buf = bytes;
        if buf.remaining() < HEADER_LEN {
            return Err(Error::Truncated {
                needed: HEADER_LEN - buf.remaining(),
                remaining: buf.remaining(),
            });
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(Error::Corrupt(format!("bad magic {magic:02x?}")));
        }
        let version = buf.get_u8();
        if version != VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let tag = buf.get_u8();
        let flags = buf.get_u16_le();
        if flags > 3 {
            return Err(Error::Corrupt("nonzero reserved flag bits".into()));
        }
        let weight_saturated = flags & 1 != 0;
        let offset_saturated = flags & 2 != 0;
        let max_counters = usize::try_from(buf.get_u64_le())
            .map_err(|_| Error::Corrupt("max_counters exceeds usize".into()))?;
        let seed = buf.get_u64_le();
        let offset = buf.get_u64_le();
        let stream_weight = buf.get_u64_le();
        let num_updates = buf.get_u64_le();
        let num_purges = buf.get_u64_le();
        let param_a = buf.get_u64_le();
        let param_b = buf.get_u64_le();
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = buf.get_u64_le();
        }
        if state == [0; 4] {
            // `Xoshiro256StarStar::from_state` asserts on this; hostile
            // bytes must surface as an error, not a panic.
            return Err(Error::Corrupt("invalid all-zero sampler state".into()));
        }
        let num_active = usize::try_from(buf.get_u32_le())
            .map_err(|_| Error::Corrupt("num_active exceeds usize".into()))?;
        let counter_bytes = num_active
            .checked_mul(16)
            .ok_or_else(|| Error::Corrupt("counter section size overflows".into()))?;
        if buf.remaining() != counter_bytes {
            return if buf.remaining() < counter_bytes {
                Err(Error::Truncated {
                    needed: counter_bytes - buf.remaining(),
                    remaining: buf.remaining(),
                })
            } else {
                Err(Error::Corrupt("trailing bytes after counters".into()))
            };
        }
        if num_active > max_counters {
            return Err(Error::Corrupt(format!(
                "{num_active} counters exceed capacity {max_counters}"
            )));
        }
        let policy = policy_from_wire(tag, param_a, param_b)?;
        let mut engine = SketchEngineBuilder::<u64>::new(max_counters)
            .policy(policy)
            .seed(seed)
            .build()
            .map_err(|e| Error::Corrupt(e.to_string()))?;
        for _ in 0..num_active {
            let item = buf.get_u64_le();
            let count = buf.get_u64_le();
            if count == 0 {
                return Err(Error::Corrupt("counter value 0 out of range".into()));
            }
            let count = i64::try_from(count)
                .map_err(|_| Error::Corrupt(format!("counter value {count} out of range")))?;
            // Direct feed: counts are within capacity, so no purge can fire,
            // only table growth.
            engine.feed_for_decode(item, count)?;
        }
        engine.offset = offset;
        engine.offset_saturated = offset_saturated;
        engine.stream_weight = stream_weight;
        engine.weight_saturated = weight_saturated;
        engine.num_updates = num_updates;
        engine.num_purges = num_purges;
        engine.rng = Xoshiro256StarStar::from_state(state);
        // Final gate: a payload that passes every field check but breaks
        // a whole-engine invariant (capacity, mass conservation) is still
        // corrupt — surface it here, never as a later panic.
        engine.audit().map_err(Error::Corrupt)?;
        Ok(engine)
    }
}

impl FreqSketch {
    /// Serializes the sketch into a fresh byte vector (format version 1).
    pub fn serialize_to_bytes(&self) -> Vec<u8> {
        self.engine.serialize_to_bytes()
    }

    /// Reconstructs a sketch serialized by [`Self::serialize_to_bytes`].
    ///
    /// # Errors
    /// Returns [`Error::Corrupt`], [`Error::UnsupportedVersion`] or
    /// [`Error::Truncated`] for malformed input. Trailing bytes after the
    /// encoded sketch are rejected as corruption.
    pub fn deserialize_from_bytes(bytes: &[u8]) -> Result<FreqSketch, Error> {
        Ok(FreqSketch {
            engine: SketchEngine::<u64>::deserialize_from_bytes(bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::ErrorType;

    fn loaded_sketch() -> FreqSketch {
        let mut s = FreqSketch::builder(128)
            .policy(PurgePolicy::smed())
            .seed(777)
            .build()
            .unwrap();
        for i in 0..50_000u64 {
            s.update(i % 999, i % 17 + 1);
        }
        s
    }

    #[test]
    fn roundtrip_preserves_all_queries() {
        let s = loaded_sketch();
        let bytes = s.serialize_to_bytes();
        let d = FreqSketch::deserialize_from_bytes(&bytes).unwrap();
        assert_eq!(d.stream_weight(), s.stream_weight());
        assert_eq!(d.num_updates(), s.num_updates());
        assert_eq!(d.num_purges(), s.num_purges());
        assert_eq!(d.maximum_error(), s.maximum_error());
        assert_eq!(d.num_counters(), s.num_counters());
        assert_eq!(d.max_counters(), s.max_counters());
        for item in 0..999u64 {
            assert_eq!(d.estimate(item), s.estimate(item), "item {item}");
            assert_eq!(d.lower_bound(item), s.lower_bound(item));
            assert_eq!(d.upper_bound(item), s.upper_bound(item));
        }
        assert_eq!(
            d.frequent_items(ErrorType::NoFalseNegatives),
            s.frequent_items(ErrorType::NoFalseNegatives)
        );
    }

    #[test]
    fn roundtrip_then_update_is_bit_identical() {
        // The sampler state travels with the sketch, so future purges make
        // identical decisions.
        let mut original = loaded_sketch();
        let bytes = original.serialize_to_bytes();
        let mut restored = FreqSketch::deserialize_from_bytes(&bytes).unwrap();
        for i in 0..50_000u64 {
            original.update(i % 1733, 5);
            restored.update(i % 1733, 5);
        }
        assert_eq!(original.maximum_error(), restored.maximum_error());
        assert_eq!(original.num_purges(), restored.num_purges());
        for item in 0..1733u64 {
            assert_eq!(original.estimate(item), restored.estimate(item));
        }
    }

    #[test]
    fn empty_sketch_roundtrip() {
        let s = FreqSketch::with_max_counters(64);
        let bytes = s.serialize_to_bytes();
        assert_eq!(bytes.len(), 108, "empty sketch is header-only");
        let d = FreqSketch::deserialize_from_bytes(&bytes).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.max_counters(), 64);
    }

    #[test]
    fn policies_roundtrip() {
        for policy in [
            PurgePolicy::smed(),
            PurgePolicy::smin(),
            PurgePolicy::sample_quantile(0.73),
            PurgePolicy::med(),
            PurgePolicy::ExactKStar { fraction: 0.25 },
            PurgePolicy::GlobalMin,
        ] {
            let s = FreqSketch::builder(32).policy(policy).build().unwrap();
            let d = FreqSketch::deserialize_from_bytes(&s.serialize_to_bytes()).unwrap();
            assert_eq!(d.policy(), policy);
        }
    }

    #[test]
    fn engine_and_sketch_wire_bytes_are_identical() {
        // A ShardedSketch shard (a bare engine) and a FreqSketch with the
        // same state must produce the same bytes: the codec lives on the
        // engine, the wrapper adds nothing.
        let s = loaded_sketch();
        assert_eq!(s.serialize_to_bytes(), s.engine().serialize_to_bytes());
    }

    #[test]
    fn saturated_offset_flag_roundtrips() {
        let mut a = FreqSketch::with_max_counters(16);
        a.update(1, 5);
        let mut b = FreqSketch::with_max_counters(16);
        b.engine.offset = u64::MAX - 1;
        a.merge(&b);
        a.merge(&b);
        assert!(a.engine().maximum_error_saturated());
        let d = FreqSketch::deserialize_from_bytes(&a.serialize_to_bytes()).unwrap();
        assert!(d.engine().maximum_error_saturated());
        assert_eq!(d.maximum_error(), u64::MAX);
        assert_eq!(
            d.engine().state_fingerprint(),
            a.engine().state_fingerprint()
        );
    }

    #[test]
    fn rejects_reserved_flag_bits() {
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[6] = 4; // bit 2 is reserved
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_unknown_version() {
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[4] = 9;
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let bytes = loaded_sketch().serialize_to_bytes();
        for cut in [0, 1, 50, HEADER_LEN - 1, HEADER_LEN + 1, bytes.len() - 1] {
            let err = FreqSketch::deserialize_from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes.push(0);
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_zero_counter_value() {
        let s = {
            let mut s = FreqSketch::with_max_counters(8);
            s.update(1, 5);
            s
        };
        let mut bytes = s.serialize_to_bytes();
        // zero out the count of the single counter (last 8 bytes)
        let n = bytes.len();
        bytes[n - 8..].fill(0);
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_counter_value_beyond_i64() {
        // Regression for the formerly unchecked `count as i64`: a wire
        // count past i64::MAX must surface as a decode error, not a
        // negative counter smuggled into the table.
        let s = {
            let mut s = FreqSketch::with_max_counters(8);
            s.update(1, 5);
            s
        };
        let mut bytes = s.serialize_to_bytes();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_counter_mass_exceeding_stream_weight() {
        // SFQ1 carries no checksum, so a flipped count byte decodes
        // cleanly field by field — the whole-engine audit at the end of
        // decode is what catches the mass-conservation violation
        // (counter total above the recorded stream weight).
        let s = {
            let mut s = FreqSketch::with_max_counters(8);
            s.update(1, 5);
            s
        };
        let mut bytes = s.serialize_to_bytes();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&1_000_000u64.to_le_bytes());
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_all_zero_sampler_state() {
        // Regression: this used to reach `Xoshiro256StarStar::from_state`
        // and panic instead of returning a decode error.
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[72..104].fill(0); // the four sampler state words
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_bad_policy_tag() {
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[5] = 42;
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn wire_size_tracks_content_not_capacity() {
        let mut s = FreqSketch::with_max_counters(24_576);
        for i in 0..10u64 {
            s.update(i, 1);
        }
        let bytes = s.serialize_to_bytes();
        assert_eq!(bytes.len(), 108 + 10 * 16);
    }
}
