// Sequence-analysis mining service: the remaining capability class the paper
// names among provider capabilities ("prediction, segmentation, sequence
// analysis, etc.", §3) and the consumer of the SEQUENCE_TIME content type
// (§3.2.2: "typically used to associate a sequence time with individual
// attribute values such as purchase time").
//
// The model is a first-order Markov chain over the items of the PREDICT
// nested table, ordered within each case by its SEQUENCE_TIME column:
// initial-state counts plus item-to-item transition counts. Prediction ranks
// the likely NEXT items given the case's most recent item. Fully
// incremental (counts only).

#ifndef DMX_ALGORITHMS_SEQUENCE_ANALYSIS_H_
#define DMX_ALGORITHMS_SEQUENCE_ANALYSIS_H_

#include <memory>
#include <string>
#include <vector>

#include "model/mining_service.h"

namespace dmx {

/// \brief Trained first-order Markov chains (one per sequence group).
class MarkovSequenceModel : public TrainedModel {
 public:
  struct Chain {
    int group = -1;  ///< AttributeSet group index.
    /// transitions[from][to]: weighted count of "to immediately after from".
    std::vector<std::vector<double>> transitions;
    /// initial[item]: weighted count of sequences starting with the item.
    std::vector<double> initial;
    double sequence_count = 0;  ///< Cases with at least one ordered item.
  };

  MarkovSequenceModel(std::vector<int> groups, double alpha);

  const std::string& service_name() const override;
  double case_count() const override { return case_count_; }

  Status ConsumeCase(const AttributeSet& attrs, const DataCase& c) override;
  Result<std::unique_ptr<TrainedModel>> Clone() const override;

  Result<std::unique_ptr<CaseScorer>> MakeScorer(
      const AttributeSet& attrs, const PredictionDemand& demand) const override;

  Result<ContentNodePtr> BuildContent(const AttributeSet& attrs) const override;

  const std::vector<Chain>& chains() const { return chains_; }
  std::vector<Chain>& mutable_chains() { return chains_; }
  double alpha() const { return alpha_; }
  void set_case_count(double n) { case_count_ = n; }

  /// Returns a case's item keys for `group`, ordered by the group's
  /// SEQUENCE_TIME value (items with a missing time sort last, stably).
  static std::vector<int> OrderedItems(const NestedGroup& group,
                                       const std::vector<CaseItem>& items);

 private:
  std::vector<Chain> chains_;
  double alpha_;
  double case_count_ = 0;
};

/// \brief Plug-in. Parameters: ALPHA (smoothing, default 0.5).
class SequenceAnalysisService : public MiningService {
 public:
  SequenceAnalysisService();

  const ServiceCapabilities& capabilities() const override { return caps_; }

  Result<std::unique_ptr<TrainedModel>> Train(
      const AttributeSet& attrs, const std::vector<DataCase>& cases,
      const ParamMap& params) const override;

  Result<std::unique_ptr<TrainedModel>> CreateEmpty(
      const AttributeSet& attrs, const ParamMap& params) const override;

  /// Requires at least one PREDICT nested table with a SEQUENCE_TIME column.
  Status ValidateBinding(const AttributeSet& attrs) const override;

 private:
  ServiceCapabilities caps_;
};

}  // namespace dmx

#endif  // DMX_ALGORITHMS_SEQUENCE_ANALYSIS_H_
