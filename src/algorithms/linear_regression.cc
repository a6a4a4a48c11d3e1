#include "algorithms/linear_regression.h"

#include <algorithm>
#include <cmath>

#include "common/exec_guard.h"
#include "common/string_util.h"

namespace dmx {

namespace {

const std::string kServiceName = "Linear_Regression";

// Solves A x = b (A symmetric positive definite after ridge) by Gaussian
// elimination with partial pivoting. A and b are modified in place.
Status SolveLinearSystem(std::vector<double>* a, std::vector<double>* b,
                         size_t n, std::vector<double>* x) {
  auto at = [&](size_t r, size_t c) -> double& { return (*a)[r * n + c]; };
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t col = 0; col < n; ++col) {
    // Pivot.
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(at(r, col)) > std::fabs(at(pivot, col))) pivot = r;
    }
    if (std::fabs(at(pivot, col)) < 1e-12) {
      return InvalidState() << "singular design matrix in regression solve";
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(at(pivot, c), at(col, c));
      std::swap((*b)[pivot], (*b)[col]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      double factor = at(r, col) / at(col, col);
      if (factor == 0) continue;
      for (size_t c = col; c < n; ++c) at(r, c) -= factor * at(col, c);
      (*b)[r] -= factor * (*b)[col];
    }
  }
  x->assign(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double sum = (*b)[ri];
    for (size_t c = ri + 1; c < n; ++c) sum -= at(ri, c) * (*x)[c];
    (*x)[ri] = sum / at(ri, ri);
  }
  return Status::OK();
}

}  // namespace

std::string LinearRegressionModel::Feature::Describe(
    const AttributeSet& attrs) const {
  switch (kind) {
    case Kind::kIntercept:
      return "(intercept)";
    case Kind::kContinuous:
      return attrs.attributes[attribute].name;
    case Kind::kCategory:
      return attrs.attributes[attribute].name + " = '" +
             attrs.attributes[attribute].StateName(state) + "'";
    case Kind::kItem:
      return attrs.groups[group].name + " contains '" +
             (item >= 0 &&
                      item < static_cast<int>(attrs.groups[group].keys.size())
                  ? attrs.groups[group].keys[item].ToString()
                  : "?") +
             "'";
  }
  return "?";
}

LinearRegressionModel::LinearRegressionModel(std::vector<Feature> features,
                                             std::vector<int> targets,
                                             double ridge_lambda)
    : features_(std::move(features)), ridge_lambda_(ridge_lambda) {
  const size_t f = features_.size();
  for (int target : targets) {
    TargetRegression reg;
    reg.target = target;
    reg.xtx.assign(f * f, 0.0);
    reg.xty.assign(f, 0.0);
    targets_.push_back(std::move(reg));
  }
}

const std::string& LinearRegressionModel::service_name() const {
  return kServiceName;
}

void LinearRegressionModel::FeatureVector(const DataCase& c,
                                          std::vector<double>* x) const {
  x->assign(features_.size(), 0.0);
  for (size_t f = 0; f < features_.size(); ++f) {
    const Feature& feature = features_[f];
    switch (feature.kind) {
      case Feature::Kind::kIntercept:
        (*x)[f] = 1.0;
        break;
      case Feature::Kind::kContinuous: {
        double v = c.values[feature.attribute];
        (*x)[f] = IsMissing(v) ? 0.0 : v;
        break;
      }
      case Feature::Kind::kCategory: {
        double v = c.values[feature.attribute];
        (*x)[f] = (!IsMissing(v) && static_cast<int>(v) == feature.state)
                      ? 1.0
                      : 0.0;
        break;
      }
      case Feature::Kind::kItem: {
        if (feature.group >= 0 &&
            static_cast<size_t>(feature.group) < c.groups.size()) {
          for (const CaseItem& entry : c.groups[feature.group]) {
            if (entry.key == feature.item) {
              (*x)[f] = 1.0;
              break;
            }
          }
        }
        break;
      }
    }
  }
}

Result<std::unique_ptr<TrainedModel>> LinearRegressionModel::Clone() const {
  return std::unique_ptr<TrainedModel>(
      std::make_unique<LinearRegressionModel>(*this));
}

// Loops here are over the (fixed-size) feature vector; the per-case guard
// checkpoint runs in the InsertCases driver right before each call
// (core/mining_model.cc).
// dmx-lint: allow(guarded-loops)
Status LinearRegressionModel::ConsumeCase(const AttributeSet& attrs,
                                          const DataCase& c) {
  (void)attrs;
  std::vector<double> x;
  FeatureVector(c, &x);
  const size_t f = features_.size();
  case_count_ += c.weight;
  for (TargetRegression& reg : targets_) {
    double y = c.values[reg.target];
    if (IsMissing(y)) continue;
    double w = c.weight * c.confidence(static_cast<size_t>(reg.target));
    if (w <= 0) continue;
    for (size_t i = 0; i < f; ++i) {
      if (x[i] == 0) continue;
      for (size_t j = i; j < f; ++j) {
        reg.xtx[i * f + j] += w * x[i] * x[j];
      }
      reg.xty[i] += w * x[i] * y;
    }
    reg.yty += w * y * y;
    reg.y_sum += w * y;
    reg.weight_sum += w;
    reg.solved = false;
  }
  return Status::OK();
}

Status LinearRegressionModel::Solve(const TargetRegression& reg) const {
  if (reg.solved) return Status::OK();
  const size_t f = features_.size();
  if (reg.weight_sum <= 0) {
    return InvalidState() << "regression target has no labeled cases";
  }
  std::vector<double> a(f * f);
  for (size_t i = 0; i < f; ++i) {
    for (size_t j = 0; j < f; ++j) {
      a[i * f + j] = i <= j ? reg.xtx[i * f + j] : reg.xtx[j * f + i];
    }
    a[i * f + i] += ridge_lambda_;
  }
  std::vector<double> b = reg.xty;
  DMX_RETURN_IF_ERROR(SolveLinearSystem(&a, &b, f, &reg.coefficients));
  // Residual variance from the accumulators:
  //   SSE = y'y - 2 w'X'y + w'X'Xw.
  double wxty = 0;
  for (size_t i = 0; i < f; ++i) wxty += reg.coefficients[i] * reg.xty[i];
  double wxxw = 0;
  for (size_t i = 0; i < f; ++i) {
    for (size_t j = 0; j < f; ++j) {
      double x2 = i <= j ? reg.xtx[i * f + j] : reg.xtx[j * f + i];
      wxxw += reg.coefficients[i] * x2 * reg.coefficients[j];
    }
  }
  double sse = std::max(0.0, reg.yty - 2 * wxty + wxxw);
  reg.residual_variance = sse / reg.weight_sum;
  reg.solved = true;
  return Status::OK();
}

namespace {

// Applies each demanded target's solved regression to the case's features.
class LinearRegressionScorer : public CaseScorer {
 public:
  LinearRegressionScorer(const LinearRegressionModel& model,
                         const PredictionDemand& demand)
      : model_(model) {
    for (size_t slot = 0; slot < demand.targets.size(); ++slot) {
      const TargetDemand& want = demand.targets[slot];
      if (want.target.kind != PredictionTarget::Kind::kAttribute) continue;
      for (const LinearRegressionModel::TargetRegression& reg :
           model.targets()) {
        if (reg.target != want.target.index) continue;
        targets_.push_back({slot, want.histogram, &reg});
        break;
      }
    }
  }

  Status Score(const DataCase& input,
               std::span<TargetPrediction> out) override {
    // dmx-hot-begin(lr-predict)
    DMX_RETURN_IF_ERROR(GuardCheck());
    model_.FeatureVector(input, &x_);
    for (const Target& t : targets_) {
      const LinearRegressionModel::TargetRegression& reg = *t.reg;
      DMX_RETURN_IF_ERROR(model_.Solve(reg));
      double y = 0;
      for (size_t i = 0; i < x_.size(); ++i) y += reg.coefficients[i] * x_[i];
      TargetPrediction& prediction = out[t.slot];
      prediction.Reset();
      prediction.SetEstimate(y, reg.weight_sum, reg.residual_variance,
                             t.ranked);
    }
    // dmx-hot-end(lr-predict)
    return Status::OK();
  }

 private:
  struct Target {
    size_t slot;
    bool ranked;
    const LinearRegressionModel::TargetRegression* reg;
  };
  const LinearRegressionModel& model_;
  std::vector<Target> targets_;
  std::vector<double> x_;  ///< The case's features, reused.
};

}  // namespace

Result<std::unique_ptr<CaseScorer>> LinearRegressionModel::MakeScorer(
    const AttributeSet& attrs, const PredictionDemand& demand) const {
  (void)attrs;
  return std::unique_ptr<CaseScorer>(
      std::make_unique<LinearRegressionScorer>(*this, demand));
}

Result<ContentNodePtr> LinearRegressionModel::BuildContent(
    const AttributeSet& attrs) const {
  auto root = std::make_shared<ContentNode>();
  root->type = NodeType::kModel;
  root->unique_name = "LR";
  root->caption = "Linear regression model";
  root->support = case_count_;
  root->probability = 1.0;
  for (const TargetRegression& reg : targets_) {
    auto node = std::make_shared<ContentNode>();
    node->type = NodeType::kRegression;
    node->unique_name = "LR/" + attrs.attributes[reg.target].name;
    node->caption = "Regression for " + attrs.attributes[reg.target].name;
    node->support = reg.weight_sum;
    Status solve_status = Solve(reg);
    if (solve_status.ok()) {
      node->score = reg.residual_variance;
      for (size_t f = 0; f < features_.size(); ++f) {
        node->distribution.push_back(
            {features_[f].Describe(attrs),
             Value::Double(reg.coefficients[f]), reg.weight_sum, 0, 0});
      }
    } else {
      node->description = solve_status.ToString();
    }
    root->children.push_back(std::move(node));
  }
  return root;
}

LinearRegressionService::LinearRegressionService() {
  caps_.name = kServiceName;
  caps_.display_name = "Linear Regression";
  caps_.description =
      "Ridge-regularized multiple linear regression with one-hot categorical "
      "and nested-item indicator features; incremental";
  caps_.supports_prediction = true;
  caps_.supports_incremental = true;
  caps_.supports_continuous_targets = true;
  caps_.supports_discrete_targets = false;
  caps_.parameters = {
      {"RIDGE_LAMBDA", "L2 regularization strength", Value::Double(1e-3)},
      {"MAXIMUM_FEATURES", "Design-matrix width guard", Value::Long(512)},
  };
}

Result<std::unique_ptr<TrainedModel>> LinearRegressionService::CreateEmpty(
    const AttributeSet& attrs, const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(double ridge, params.at("RIDGE_LAMBDA").AsDouble());
  DMX_ASSIGN_OR_RETURN(int64_t max_features,
                       params.at("MAXIMUM_FEATURES").AsLong());
  std::vector<int> targets = attrs.OutputAttributeIndices();
  if (targets.empty()) {
    return InvalidArgument() << "Linear_Regression model has no PREDICT column";
  }

  using Feature = LinearRegressionModel::Feature;
  std::vector<Feature> features;
  features.push_back({Feature::Kind::kIntercept, -1, -1, -1, -1});
  for (size_t a = 0; a < attrs.attributes.size(); ++a) {
    const Attribute& attr = attrs.attributes[a];
    if (!attr.is_input || attr.is_output) continue;
    if (attr.is_continuous) {
      features.push_back(
          {Feature::Kind::kContinuous, static_cast<int>(a), -1, -1, -1});
    } else {
      // One-hot minus one state (the first is the baseline).
      for (int state = 1; state < attr.cardinality(); ++state) {
        features.push_back(
            {Feature::Kind::kCategory, static_cast<int>(a), state, -1, -1});
      }
    }
  }
  for (size_t g = 0; g < attrs.groups.size(); ++g) {
    const NestedGroup& group = attrs.groups[g];
    if (!group.is_input) continue;
    for (size_t item = 0; item < group.keys.size(); ++item) {
      features.push_back({Feature::Kind::kItem, -1, -1, static_cast<int>(g),
                          static_cast<int>(item)});
    }
  }
  if (features.size() > static_cast<size_t>(max_features)) {
    return InvalidArgument()
           << "regression design matrix would have " << features.size()
           << " columns, above MAXIMUM_FEATURES = " << max_features
           << "; raise the parameter or reduce the attribute space";
  }
  return std::unique_ptr<TrainedModel>(new LinearRegressionModel(
      std::move(features), std::move(targets), ridge));
}

Result<std::unique_ptr<TrainedModel>> LinearRegressionService::Train(
    const AttributeSet& attrs, const std::vector<DataCase>& cases,
    const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<TrainedModel> model,
                       CreateEmpty(attrs, params));
  size_t n = 0;
  // dmx-hot-begin(lr-train-consume)
  for (const DataCase& c : cases) {
    if ((n++ & 255) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
    DMX_RETURN_IF_ERROR(model->ConsumeCase(attrs, c));
  }
  // dmx-hot-end(lr-train-consume)
  return model;
}

}  // namespace dmx
