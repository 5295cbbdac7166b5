// L000 fixture: the suppression workflow itself. Two justified allows
// (standalone + trailing) suppress their violations; one unused allow and
// one malformed allow are reported by the meta lint.

pub fn covered(y: &mut Vec<f32>) -> usize {
    // logcl-allow(L001): fixture — documented seam, hands the buffer on
    y.split_at_mut(1).0.len()
}

pub fn trailing(y: &mut Vec<f32>) -> usize {
    y.chunks_mut(2).count() // logcl-allow(L001): fixture — trailing form covers its own line
}

// logcl-allow(L001): fixture — nothing below violates, so this allow is stale
pub fn clean() -> u32 {
    0
}

// logcl-allow(L001)
pub fn missing_reason() -> u32 {
    1
}
