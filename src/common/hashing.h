#ifndef FEWSTATE_COMMON_HASHING_H_
#define FEWSTATE_COMMON_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace fewstate {

/// \brief k-wise independent hash family via degree-(k-1) polynomials over
/// the Mersenne prime field GF(2^61 - 1).
///
/// Evaluation is Horner's rule with fast Mersenne reduction; outputs can be
/// mapped to a bounded integer range or to [0, 1). Streaming sketches in
/// this library use k in {2, 4, 8}.
class PolynomialHash {
 public:
  /// \brief The Mersenne prime 2^61 - 1 used as the field modulus.
  static constexpr uint64_t kPrime = (1ULL << 61) - 1;

  /// \brief Constructs a hash with `independence` >= 1 random coefficients
  /// drawn from `seed`.
  PolynomialHash(int independence, uint64_t seed);

  /// \brief Raw hash value in [0, kPrime).
  uint64_t Hash(uint64_t x) const;

  /// \brief Batch evaluation: out[i] = Hash(items[i]) for i in [0, n),
  /// bitwise identical to the scalar path. The common independence-2 case
  /// (a + b·x over GF(2^61-1)) runs as a flat software-pipelined loop; the
  /// general Horner loop handles higher degrees.
  void HashBatch(const uint64_t* items, size_t n, uint64_t* out) const;

  /// \brief Hash mapped to [0, range) (range > 0). Bias is O(range / 2^61).
  uint64_t HashRange(uint64_t x, uint64_t range) const;

  /// \brief Batch variant: out[i] = HashRange(items[i], range), bitwise
  /// identical to the scalar path.
  void HashRangeBatch(const uint64_t* items, size_t n, uint64_t range,
                      uint64_t* out) const;

  /// \brief Batch variant of HashSign: out[i] in {+1, -1}.
  void HashSignBatch(const uint64_t* items, size_t n, int8_t* out) const;

  /// \brief Hash mapped to the unit interval [0, 1).
  double HashUnit(uint64_t x) const;

  /// \brief Hash mapped to {+1, -1} (for CountSketch/AMS style signs).
  int HashSign(uint64_t x) const;

  /// \brief Geometric level of x: largest L >= 0 such that the hash of x
  /// falls below 2^{-L}, capped at `max_level`. P(level >= l) ~= 2^{-l}.
  ///
  /// Used for nested universe subsampling: item j belongs to substream
  /// I_ell (rate 2^{1-ell}) iff Level(j) >= ell - 1; nestedness holds by
  /// construction because a single hash value decides all levels.
  int GeometricLevel(uint64_t x, int max_level) const;

  /// \brief Degree of independence (number of coefficients).
  int independence() const { return static_cast<int>(coeffs_.size()); }

 private:
  std::vector<uint64_t> coeffs_;
};

/// \brief Simple tabulation hashing over 8 byte-indexed tables.
///
/// 3-wise independent with strong Chernoff-style concentration in practice;
/// faster than polynomial evaluation and used where speed matters more than
/// provable independence degree.
class TabulationHash {
 public:
  explicit TabulationHash(uint64_t seed);

  /// \brief Raw 64-bit hash.
  uint64_t Hash(uint64_t x) const;

  /// \brief Batch evaluation: out[i] = Hash(items[i]), bitwise identical
  /// to the scalar path (the 8 byte-table lookups software-pipeline across
  /// items).
  void HashBatch(const uint64_t* items, size_t n, uint64_t* out) const;

  /// \brief Hash mapped to [0, range) (range > 0).
  uint64_t HashRange(uint64_t x, uint64_t range) const;

  /// \brief Batch variant: out[i] = HashRange(items[i], range). `out` may
  /// be `items` (each item is read before its slot is written).
  void HashRangeBatch(const uint64_t* items, size_t n, uint64_t range,
                      uint64_t* out) const;

  /// \brief Hash mapped to [0, 1).
  double HashUnit(uint64_t x) const;

 private:
  uint64_t tables_[8][256];
};

}  // namespace fewstate

#endif  // FEWSTATE_COMMON_HASHING_H_
