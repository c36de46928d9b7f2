// Numerically robust accumulator for sums of exponentials with removal.
//
// The Token-Picker denominator D = sum_j exp(s_min_j) is built incrementally:
// tokens add a term when they survive a prune decision, replace their term
// when a new bit chunk tightens s_min, and (under the remove-on-prune policy)
// delete their term when pruned. Scores can be large, so terms are stored
// relative to a running maximum shift: D = exp(shift) * acc.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace topick {

class ShiftedExpSum {
 public:
  ShiftedExpSum() = default;

  // A term's linear value exp(x - shift) plus the shift epoch it was computed
  // under. Callers on the hot path cache the Term returned by add_term /
  // replace_term and hand it back to the next replace_term, which then skips
  // re-exponentiating the old term when the shift has not moved since —
  // bit-identical to the plain forms (the cached double IS the value the
  // recomputation would produce), one std::exp cheaper.
  struct Term {
    double lin = 0.0;
    std::uint64_t epoch = 0;
  };

  // All mutators and readers are header-inline: the estimator calls them
  // once per (token, chunk) on the decode hot path, where call overhead is
  // measurable next to the single exp/log they wrap.

  // Adds exp(x) to the sum.
  void add(double x) { add_term(x); }

  Term add_term(double x) {
    if (terms_ == 0) {
      shift_ = x;
      acc_ = 1.0;
      terms_ = 1;
      ++epoch_;
      return Term{1.0, epoch_};
    }
    if (x > shift_) rescale(x);
    const double lin = std::exp(x - shift_);
    acc_ += lin;
    ++terms_;
    return Term{lin, epoch_};
  }

  // Removes exp(x) from the sum. x must have been previously added (or be the
  // current value of a replaced term); the sum is clamped at zero to absorb
  // rounding residue.
  void remove(double x) {
    if (terms_ == 0) return;
    acc_ -= std::exp(x - shift_);
    acc_ = std::max(acc_, 0.0);
    --terms_;
    if (terms_ == 0) {
      acc_ = 0.0;
      shift_ = 0.0;
      ++epoch_;
    }
  }

  // Replaces exp(old_x) with exp(new_x): the per-chunk denominator update
  // exp(s_min^b) - exp(s_min^{b-1}) performed by the PEC/DAG pair.
  void replace(double old_x, double new_x) {
    replace_term(old_x, new_x, Term{0.0, 0});  // epoch 0 never matches
  }

  Term replace_term(double old_x, double new_x, const Term& old_term) {
    if (new_x > shift_) rescale(new_x);
    // A cached old term from the current epoch is exactly the double that
    // std::exp(old_x - shift_) would produce now — reuse it (the hot path's
    // saved exponentiation); any epoch mismatch recomputes as before.
    const double old_lin =
        old_term.epoch == epoch_ ? old_term.lin : std::exp(old_x - shift_);
    const double new_lin = std::exp(new_x - shift_);
    acc_ += new_lin - old_lin;
    acc_ = std::max(acc_, 0.0);
    return Term{new_lin, epoch_};
  }

  // Natural log of the sum; -infinity when empty. Memoizes log(acc) for
  // log_upper_bound() and log_lower_bound().
  double log() const {
    if (terms_ == 0 || acc_ <= 0.0) {
      return -std::numeric_limits<double>::infinity();
    }
    memo_acc_ = acc_;
    memo_log_acc_ = std::log(acc_);
    return shift_ + memo_log_acc_;
  }

  // A transcendental-free upper bound on log(): from the last memoized
  // log(acc) and ln x <= x - 1 (plus slack dominating float rounding), so
  // hot paths can prove "log() < threshold is false" without calling log.
  // Exact log() is the fallback when no memo exists yet. A bound that is
  // merely loose only costs the caller a fallthrough to the exact log,
  // never a wrong comparison.
  double log_upper_bound() const {
    if (terms_ == 0 || acc_ <= 0.0) {
      return -std::numeric_limits<double>::infinity();
    }
    if (memo_acc_ <= 0.0) return log();  // no memo yet: exact (and memoize)
    // log(acc) <= log(memo_acc) when acc has shrunk (monotonicity), and
    // log(acc) <= log(memo_acc) + (acc/memo_acc - 1) otherwise (ln x <=
    // x - 1). The 1e-9 slack dominates every float-rounding error in the
    // memo and the ratio (values here are O(1e3) at most, ulps ~1e-13).
    double bound = memo_log_acc_;
    if (acc_ > memo_acc_) bound += acc_ / memo_acc_ - 1.0;
    return shift_ + bound + 1e-9;
  }

  // Its mirror, a transcendental-free lower bound on log(): from the same
  // memo and ln x >= 1 - 1/x, so hot paths can prove "log() >= threshold"
  // (a prune) without calling log. log(acc) >= log(memo_acc) when acc has
  // grown (monotonicity), and log(acc) >= log(memo_acc) + (1 - memo_acc/acc)
  // otherwise; the same 1e-9 slack keeps the bound below the computed
  // log(). Exact log() is the fallback when no memo exists yet.
  double log_lower_bound() const {
    if (terms_ == 0 || acc_ <= 0.0) {
      return -std::numeric_limits<double>::infinity();
    }
    if (memo_acc_ <= 0.0) return log();  // no memo yet: exact (and memoize)
    double bound = memo_log_acc_;
    if (acc_ < memo_acc_) bound += 1.0 - memo_acc_ / acc_;
    return shift_ + bound - 1e-9;
  }

  // The sum itself (may overflow to +inf for extreme shifts; log() is safe).
  double value() const {
    if (terms_ == 0) return 0.0;
    return std::exp(shift_) * acc_;
  }

  bool empty() const { return terms_ == 0; }
  std::size_t terms() const { return terms_; }

 private:
  void rescale(double new_shift) {
    if (new_shift == shift_) return;
    acc_ *= std::exp(shift_ - new_shift);
    shift_ = new_shift;
    ++epoch_;
  }

  double shift_ = 0.0;  // current exponent shift
  double acc_ = 0.0;    // sum of exp(x - shift_)
  std::size_t terms_ = 0;
  // Bumped whenever shift_ changes; starts at 1 so the default Term (epoch 0)
  // can never spuriously match.
  std::uint64_t epoch_ = 1;
  mutable double memo_acc_ = -1.0;  // acc_ value log() last saw (< 0: none)
  mutable double memo_log_acc_ = 0.0;
};

// One-shot log(sum(exp(xs))) over a range.
double log_sum_exp(const double* xs, std::size_t n);

}  // namespace topick
