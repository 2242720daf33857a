//! The LEB128 codec shared by the packed logs: the telemetry ring
//! (`telemetry.rs`) and the executed history (`fragdb_model::History`).
//!
//! An unsigned value is written seven bits a byte, low bits first, the
//! high bit set on every byte but the last: a value below 128 costs one
//! byte, `u64::MAX` ten. A signed delta is zigzagged first, so a small
//! step backwards costs as little as a small step forwards.
//!
//! The readers take a `&mut &[u8]` and advance it past what they read.
//! A log holds only what its own writer appended, so running out of bytes
//! mid-value is a bug and panics.

/// Append `v` as LEB128.
#[inline(always)]
pub fn pack(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read back what [`pack`] wrote.
#[inline(always)]
pub fn unpack(packed: &mut &[u8]) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = unpack_byte(packed);
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// The next byte: a tag or a one-byte field written with `Vec::push`.
#[inline(always)]
pub fn unpack_byte(packed: &mut &[u8]) -> u8 {
    let (&b, rest) = packed.split_first().expect("a packed record is whole");
    *packed = rest;
    b
}

/// Append the wrapping difference `to − from` of two instants as a zigzag
/// LEB128: a record may be written out of time order, so the delta is
/// signed.
#[inline(always)]
pub fn pack_delta(out: &mut Vec<u8>, from: u64, to: u64) {
    let delta = to.wrapping_sub(from) as i64;
    pack(out, ((delta << 1) ^ (delta >> 63)) as u64);
}

/// The instant [`pack_delta`] wrote after `from`.
#[inline(always)]
pub fn unpack_delta(from: u64, packed: &mut &[u8]) -> u64 {
    let zigzag = unpack(packed);
    from.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_and_deltas_round_trip_at_every_width() {
        let values = (0..64).flat_map(|s| [1u64 << s, (1u64 << s) - 1, !(1u64 << s)]);
        let mut out = Vec::new();
        for v in values.clone() {
            pack(&mut out, v);
            pack_delta(&mut out, v, 0);
            pack_delta(&mut out, 0, v);
        }
        let mut packed = &out[..];
        for v in values {
            assert_eq!(unpack(&mut packed), v);
            assert_eq!(unpack_delta(v, &mut packed), 0);
            assert_eq!(unpack_delta(0, &mut packed), v);
        }
        assert!(packed.is_empty());
    }

    #[test]
    fn small_values_and_steps_take_one_byte() {
        for (v, from, to, len) in [(0, 5, 5, 2), (127, 9, 8, 2), (128, 0, 63, 3)] {
            let mut out = Vec::new();
            pack(&mut out, v);
            pack_delta(&mut out, from, to);
            assert_eq!(out.len(), len, "{v} and {from} → {to}");
        }
        let mut out = Vec::new();
        pack(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
    }
}
