// Seeded, splittable random-number substrate.
//
// Every stochastic subsystem (topology generation, link delays, loss draws,
// failure schedules, workload placement, publish jitter) owns an independent
// Rng derived from the scenario seed plus a component label. This keeps runs
// bit-reproducible and — crucially for the experiments — lets two routing
// algorithms face the *identical* failure/loss sample path, so comparisons
// in the figure harnesses are paired, not merely same-distribution.
//
// The generator is xoshiro256**: tiny state, excellent statistical quality,
// and trivially seedable from splitmix64 per the reference implementation.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace dcrd {

// splitmix64 step; used for seeding and for hashing labels into substreams.
constexpr std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Stateless splitmix64 finalizer: a bijective avalanche mix of one word.
// Building block for the keyed (counter-addressed) draws below.
constexpr std::uint64_t MixU64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Keyed uniform draw in [0, 1): a pure function of (seed, a, b, salt) with
// no stream state. The network addresses every loss/gray/jitter draw by
// content (directed link + per-link counter, or copy id + transmission
// index) instead of consuming a shared sequential stream, so the value of a
// draw cannot depend on the global interleaving of *other* transmissions:
// the sample path is fixed by what each link carried, and enabling one
// process or traffic class never shifts another's draws.
// Chained splitmix finalizers give full avalanche across all four words.
constexpr double KeyedUnit(std::uint64_t seed, std::uint64_t a,
                           std::uint64_t b, std::uint64_t salt) {
  const std::uint64_t h = MixU64(seed ^ MixU64(a ^ MixU64(b ^ MixU64(salt))));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Keyed Bernoulli trial; same purity contract as KeyedUnit.
constexpr bool KeyedBernoulli(double p, std::uint64_t seed, std::uint64_t a,
                              std::uint64_t b, std::uint64_t salt) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return KeyedUnit(seed, a, b, salt) < p;
}

// FNV-1a over a label, mixed through splitmix64; maps component names to
// substream offsets.
constexpr std::uint64_t HashLabel(std::string_view label) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  std::uint64_t s = h;
  return SplitMix64(s);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xD1B54A32D192ED03ULL) {
    std::uint64_t s = seed;
    for (auto& word : state_) word = SplitMix64(s);
  }

  // Derives an independent substream for a named component, e.g.
  // rng.Fork("failures") or rng.Fork("topology", rep).
  [[nodiscard]] Rng Fork(std::string_view label, std::uint64_t index = 0) const {
    std::uint64_t s = state_[0] ^ (state_[2] * 0x9E3779B97F4A7C15ULL);
    s ^= HashLabel(label) + 0x632BE59BD9B4E019ULL * (index + 1);
    return Rng(SplitMix64(s));
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1); 53 random mantissa bits.
  double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound); Lemire's multiply-shift rejection method.
  std::uint64_t NextBounded(std::uint64_t bound) {
    if (bound <= 1) return 0;
    // 128-bit multiply keeps the distribution exactly uniform.
    while (true) {
      const std::uint64_t x = (*this)();
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      const std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    NextBounded(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [lo, hi).
  double NextDoubleInRange(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  // Bernoulli trial with success probability p.
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  // Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void Shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(NextBounded(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dcrd
