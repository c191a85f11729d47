//! The little-endian cursor every host-side record format (checkpoint,
//! sidecar directory, bitmap sidecar) decodes with: each call takes one
//! field off the front of the slice, or returns `None` when too few bytes
//! remain.

/// Takes the next `len` bytes.
pub(crate) fn take_bytes<'a>(rest: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(len)?;
    *rest = tail;
    Some(head)
}

/// Takes a little-endian `u32`.
pub(crate) fn take_u32(rest: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take_bytes(rest, 4)?.try_into().ok()?))
}

/// Takes a little-endian `u64`.
pub(crate) fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take_bytes(rest, 8)?.try_into().ok()?))
}

/// Takes a length-prefixed section: a `u64` byte count, then that many
/// bytes.
pub(crate) fn take_section<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = usize::try_from(take_u64(rest)?).ok()?;
    take_bytes(rest, len)
}
