// IndexedFn<R> — the one shape of the attacker's keyed predictors: a
// function of ONE plaintext byte and the key guess, returning R.
// SelectionFn (R = int, the DPA D-functions) and LeakageModel (R =
// double, the CPA models) are aliases of this template; see
// selection.hpp / cpa.hpp for their semantics.
//
// Every predictor declares the byte it reads, which is what the
// streaming engine (dpa::OnlineCpa / dpa::OnlineDpa) exploits: it
// tabulates the predictor into a 256-entry-per-guess LUT once, so no
// std::function runs on the per-trace hot path. A predictor is built
// with byte_indexed(); a default-constructed one is empty.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>

namespace qdi::dpa {

template <typename R>
class IndexedFn {
 public:
  using ByteFn = std::function<R(std::uint8_t value, unsigned guess)>;

  IndexedFn() = default;

  /// Predictor that depends only on plaintext[byte]: f(pt, g) =
  /// fn(pt[byte], g).
  static IndexedFn byte_indexed(int byte, ByteFn fn) {
    IndexedFn f;
    f.byte_ = byte;
    f.byte_fn_ = std::move(fn);
    return f;
  }

  R operator()(std::span<const std::uint8_t> pt, unsigned guess) const {
    return byte_fn_(pt[static_cast<std::size_t>(byte_)], guess);
  }

  explicit operator bool() const noexcept {
    return static_cast<bool>(byte_fn_);
  }
  int byte() const noexcept { return byte_; }
  /// fn(value, guess) for a plaintext byte value (LUT tabulation).
  R eval_byte(std::uint8_t value, unsigned guess) const {
    return byte_fn_(value, guess);
  }

  /// Restrict to one fixed guess: the result answers every guess index
  /// with this predictor's value at `guess` (callers use index 0).
  IndexedFn pinned(unsigned guess) const {
    return byte_indexed(byte_, [fn = byte_fn_, guess](std::uint8_t v,
                                                      unsigned) {
      return fn(v, guess);
    });
  }

 private:
  ByteFn byte_fn_;
  int byte_ = 0;
};

}  // namespace qdi::dpa
