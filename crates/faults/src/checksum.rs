//! FNV-1a fingerprints over tensors, matrices and raw value buffers.
//!
//! Two roles: (1) the ECC-style *detection* mechanism — a faulted plan
//! run conceptually checksums every transfer, and the simulated
//! verification cost is charged as a host task sized by the bytes moved; (2) the *zero numeric drift* witness — recovery
//! tests and the `fault_storm` bench compare output fingerprints against
//! fault-free runs, so "bit-identical" is one `u64` comparison.

use scalfrag_linalg::Mat;
use scalfrag_tensor::CooTensor;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint of a raw f32 buffer (bit-exact: hashes `to_bits`).
pub fn buffer_checksum(values: &[f32]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(values.len() as u64).to_le_bytes());
    for v in values {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Fingerprint of a matrix: shape plus bit-exact contents.
pub fn mat_checksum(m: &Mat) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(m.rows() as u64).to_le_bytes());
    h = fnv1a(h, &(m.cols() as u64).to_le_bytes());
    for v in m.as_slice() {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Fingerprint of a COO tensor: dims, nnz and bit-exact values — what a
/// segment checksum pass would verify after an H2D transfer.
pub fn tensor_checksum(t: &CooTensor) -> u64 {
    let mut h = FNV_OFFSET;
    for &d in t.dims() {
        h = fnv1a(h, &(d as u64).to_le_bytes());
    }
    h = fnv1a(h, &(t.nnz() as u64).to_le_bytes());
    for v in t.values() {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_checksum_is_bit_sensitive() {
        let a = buffer_checksum(&[1.0, 2.0, 3.0]);
        assert_eq!(a, buffer_checksum(&[1.0, 2.0, 3.0]));
        assert_ne!(a, buffer_checksum(&[1.0, 2.0, 3.0000002]));
        assert_ne!(a, buffer_checksum(&[1.0, 2.0]));
        // 0.0 and -0.0 are distinct bit patterns: a corruption flipping
        // only the sign bit must still be caught.
        assert_ne!(buffer_checksum(&[0.0]), buffer_checksum(&[-0.0]));
    }

    #[test]
    fn mat_checksum_includes_shape() {
        let a = Mat::from_vec(2, 3, vec![1.0; 6]);
        let b = Mat::from_vec(3, 2, vec![1.0; 6]);
        assert_ne!(mat_checksum(&a), mat_checksum(&b));
        assert_eq!(mat_checksum(&a), mat_checksum(&a.clone()));
    }

    #[test]
    fn tensor_checksum_detects_value_corruption() {
        let t = CooTensor::random_uniform(&[16, 16, 16], 200, 99);
        let base = tensor_checksum(&t);
        assert_eq!(base, tensor_checksum(&t.clone()));
        let mut corrupted = t.clone();
        corrupted.values_mut()[17] += 1.0e-6;
        assert_ne!(base, tensor_checksum(&corrupted));
    }
}
