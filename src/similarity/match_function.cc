#include "similarity/match_function.h"

#include <algorithm>

#include <cmath>
#include <cstdlib>

#include "common/string_util.h"
#include "similarity/jaro_winkler.h"
#include "similarity/levenshtein.h"

namespace progres {

MatchFunction::MatchFunction(std::vector<AttributeRule> rules, double threshold)
    : rules_(std::move(rules)), threshold_(threshold), total_weight_(0.0) {
  for (const AttributeRule& r : rules_) total_weight_ += r.weight;
  if (total_weight_ <= 0.0) total_weight_ = 1.0;
  eval_order_.resize(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    eval_order_[i] = static_cast<int>(i);
  }
  std::stable_sort(eval_order_.begin(), eval_order_.end(), [this](int a, int b) {
    return rules_[static_cast<size_t>(a)].weight >
           rules_[static_cast<size_t>(b)].weight;
  });
}

double MatchFunction::RuleSimilarity(const AttributeRule& r, const Entity& a,
                                     const Entity& b) const {
  std::string_view va = a.attribute(static_cast<size_t>(r.attribute_index));
  std::string_view vb = b.attribute(static_cast<size_t>(r.attribute_index));
  if (r.max_chars > 0) {
    va = Prefix(va, static_cast<size_t>(r.max_chars));
    vb = Prefix(vb, static_cast<size_t>(r.max_chars));
  }
  double sim = 0.0;
  switch (r.similarity) {
    case AttributeSimilarity::kEditDistance:
      sim = EditSimilarity(va, vb);
      break;
    case AttributeSimilarity::kExact:
      sim = (va == vb) ? 1.0 : 0.0;
      break;
    case AttributeSimilarity::kJaroWinkler:
      sim = JaroWinklerSimilarity(va, vb);
      break;
    case AttributeSimilarity::kNumeric: {
      char* end_a = nullptr;
      char* end_b = nullptr;
      const std::string sa(va);
      const std::string sb(vb);
      const double na = std::strtod(sa.c_str(), &end_a);
      const double nb = std::strtod(sb.c_str(), &end_b);
      const bool ok_a = end_a != sa.c_str() && *end_a == '\0' && !sa.empty();
      const bool ok_b = end_b != sb.c_str() && *end_b == '\0' && !sb.empty();
      if (!ok_a || !ok_b) {
        sim = (va == vb) ? 1.0 : 0.0;  // non-numeric: fall back to exact
      } else {
        const double scale = r.numeric_scale > 0.0 ? r.numeric_scale : 1.0;
        sim = std::max(0.0, 1.0 - std::abs(na - nb) / scale);
      }
      break;
    }
  }
  return r.weight * sim;
}

double MatchFunction::Similarity(const Entity& a, const Entity& b) const {
  double sum = 0.0;
  for (const AttributeRule& r : rules_) sum += RuleSimilarity(r, a, b);
  return sum / total_weight_;
}

bool MatchFunction::Resolve(const Entity& a, const Entity& b) const {
  const double need = threshold_ * total_weight_;
  double sum = 0.0;
  double remaining = total_weight_;
  for (int index : eval_order_) {
    const AttributeRule& r = rules_[static_cast<size_t>(index)];
    remaining -= r.weight;
    sum += RuleSimilarity(r, a, b);
    if (sum >= need) return true;              // decided: above threshold
    if (sum + remaining < need) return false;  // decided: unreachable
  }
  return sum >= need;
}

}  // namespace progres
