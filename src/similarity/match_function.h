#ifndef PROGRES_SIMILARITY_MATCH_FUNCTION_H_
#define PROGRES_SIMILARITY_MATCH_FUNCTION_H_

#include <vector>

#include "model/entity.h"

namespace progres {

// How a single attribute's similarity is computed (Sec. VI-A2: the paper
// compares attributes with edit distance or exact matching).
enum class AttributeSimilarity {
  kEditDistance,  // normalized Levenshtein similarity
  kExact,         // 1.0 if equal, else 0.0
  kJaroWinkler,   // Jaro-Winkler similarity (short name-like strings)
  kNumeric,       // 1 - |a - b| / numeric_scale, clamped to [0, 1]
};

// One attribute's contribution to the weighted-sum match decision.
struct AttributeRule {
  int attribute_index = 0;
  AttributeSimilarity similarity = AttributeSimilarity::kEditDistance;
  double weight = 1.0;
  // If > 0, only the first `max_chars` characters are compared. The paper
  // truncates the abstract attribute to 350 characters (footnote 8).
  int max_chars = 0;
  // For kNumeric: the difference at which similarity reaches zero. Values
  // that fail to parse as numbers compare as kExact.
  double numeric_scale = 1.0;
};

// The compute-intensive resolve/match function: a weighted sum of
// per-attribute similarities compared against a threshold. Immutable after
// construction, so reduce tasks running in parallel can share one instance
// and call Resolve/Similarity concurrently.
class MatchFunction {
 public:
  MatchFunction(std::vector<AttributeRule> rules, double threshold);

  // Returns true if `a` and `b` are declared duplicates, i.e. whether
  // Similarity(a, b) >= threshold. Missing values (empty strings on both
  // sides) contribute full similarity; a value missing on one side only
  // contributes zero.
  //
  // Attributes are evaluated heaviest-weight first and evaluation stops as
  // soon as the threshold decision is fixed (the remaining attributes can
  // only contribute [0, remaining_weight]); this skips the expensive
  // long-text comparisons for clearly distinct pairs.
  bool Resolve(const Entity& a, const Entity& b) const;

  // Returns the weighted similarity in [0, 1] without thresholding.
  double Similarity(const Entity& a, const Entity& b) const;

  double threshold() const { return threshold_; }
  const std::vector<AttributeRule>& rules() const { return rules_; }

 private:
  // Weighted similarity of one attribute rule.
  double RuleSimilarity(const AttributeRule& rule, const Entity& a,
                        const Entity& b) const;

  std::vector<AttributeRule> rules_;
  // Indexes of rules_ sorted by non-increasing weight (Resolve's evaluation
  // order; maximizes early-exit opportunities).
  std::vector<int> eval_order_;
  double threshold_;
  double total_weight_;
};

}  // namespace progres

#endif  // PROGRES_SIMILARITY_MATCH_FUNCTION_H_
