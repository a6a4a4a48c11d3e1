#include "pmml/pmml.h"

#include <sstream>

#include "algorithms/association_rules.h"
#include "algorithms/clustering.h"
#include "algorithms/decision_tree.h"
#include "algorithms/linear_regression.h"
#include "algorithms/naive_bayes.h"
#include "algorithms/sequence_analysis.h"
#include "core/dmx_parser.h"
#include "pmml/xml.h"

namespace dmx {

namespace {

// ---------------------------------------------------------------------------
// Scalar helpers
// ---------------------------------------------------------------------------

void WriteValue(xml::Element* parent, const std::string& element_name,
                const Value& value) {
  xml::Element* e = parent->AddChild(element_name);
  switch (value.kind()) {
    case Value::Kind::kNull:
      e->SetAttr("type", std::string("NULL"));
      break;
    case Value::Kind::kBool:
      e->SetAttr("type", std::string("BOOL"));
      e->set_text(value.bool_value() ? "1" : "0");
      break;
    case Value::Kind::kLong:
      e->SetAttr("type", std::string("LONG"));
      e->set_text(std::to_string(value.long_value()));
      break;
    case Value::Kind::kDouble:
      e->SetAttr("type", std::string("DOUBLE"));
      e->set_text(FormatDouble(value.double_value()));
      break;
    case Value::Kind::kText:
      e->SetAttr("type", std::string("TEXT"));
      e->set_text(value.text_value());
      break;
    case Value::Kind::kTable:
      e->SetAttr("type", std::string("NULL"));  // Tables never occur here.
      break;
  }
}

Result<Value> ReadValue(const xml::Element& e) {
  DMX_ASSIGN_OR_RETURN(std::string type, e.GetAttr("type"));
  if (type == "NULL") return Value::Null();
  if (type == "BOOL") return Value::Bool(e.text() == "1");
  if (type == "LONG") return Value::Long(std::strtoll(e.text().c_str(),
                                                      nullptr, 10));
  if (type == "DOUBLE") return Value::Double(std::strtod(e.text().c_str(),
                                                         nullptr));
  if (type == "TEXT") return Value::Text(e.text());
  return IOError() << "unknown serialized value type '" << type << "'";
}

std::string JoinDoubles(const std::vector<double>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    out += FormatDouble(values[i]);
  }
  return out;
}

std::vector<double> SplitDoubles(const std::string& text) {
  std::vector<double> out;
  std::istringstream in(text);
  double v;
  while (in >> v) out.push_back(v);
  return out;
}

std::string JoinInts(const std::vector<int>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(values[i]);
  }
  return out;
}

std::vector<int> SplitInts(const std::string& text) {
  std::vector<int> out;
  std::istringstream in(text);
  int v;
  while (in >> v) out.push_back(v);
  return out;
}

// Writes a [class][state] count table as <Class i="0">counts</Class> rows.
void WriteCountTable(xml::Element* parent,
                     const std::vector<std::vector<double>>& table) {
  for (size_t cls = 0; cls < table.size(); ++cls) {
    xml::Element* row = parent->AddChild("Class");
    row->SetAttr("i", static_cast<int64_t>(cls));
    row->set_text(JoinDoubles(table[cls]));
  }
}

Result<std::vector<std::vector<double>>> ReadCountTable(
    const xml::Element& parent) {
  std::vector<std::vector<double>> table;
  for (const xml::Element* row : parent.FindChildren("Class")) {
    DMX_ASSIGN_OR_RETURN(int64_t i, row->GetLongAttr("i"));
    if (table.size() <= static_cast<size_t>(i)) table.resize(i + 1);
    table[i] = SplitDoubles(row->text());
  }
  return table;
}

// ---------------------------------------------------------------------------
// AttributeSet dictionaries
// ---------------------------------------------------------------------------

void WriteAttributeSet(xml::Element* root, const AttributeSet& attrs) {
  xml::Element* holder = root->AddChild("X-AttributeSet");
  for (const Attribute& attr : attrs.attributes) {
    xml::Element* e = holder->AddChild("Attribute");
    e->SetAttr("name", attr.name);
    for (const Value& category : attr.categories) {
      WriteValue(e, "Category", category);
    }
    if (!attr.bucket_bounds.empty()) {
      e->AddChild("Bounds")->set_text(JoinDoubles(attr.bucket_bounds));
    }
  }
  for (const NestedGroup& group : attrs.groups) {
    xml::Element* e = holder->AddChild("Group");
    e->SetAttr("name", group.name);
    for (const Value& key : group.keys) {
      WriteValue(e, "Key", key);
    }
  }
}

Status ReadAttributeSet(const xml::Element& root, AttributeSet* attrs) {
  const xml::Element* holder = root.FindChild("X-AttributeSet");
  if (holder == nullptr) {
    return IOError() << "document has no X-AttributeSet element";
  }
  for (const xml::Element* e : holder->FindChildren("Attribute")) {
    DMX_ASSIGN_OR_RETURN(std::string name, e->GetAttr("name"));
    int idx = attrs->FindAttribute(name);
    if (idx < 0) {
      return IOError() << "serialized attribute '" << name
                       << "' is not part of the model definition";
    }
    Attribute& attr = attrs->attributes[idx];
    attr.categories.clear();
    attr.category_index.clear();
    for (const xml::Element* c : e->FindChildren("Category")) {
      DMX_ASSIGN_OR_RETURN(Value v, ReadValue(*c));
      attr.InternCategory(v);
    }
    const xml::Element* bounds = e->FindChild("Bounds");
    if (bounds != nullptr) attr.bucket_bounds = SplitDoubles(bounds->text());
  }
  for (const xml::Element* e : holder->FindChildren("Group")) {
    DMX_ASSIGN_OR_RETURN(std::string name, e->GetAttr("name"));
    int idx = attrs->FindGroup(name);
    if (idx < 0) {
      return IOError() << "serialized group '" << name
                       << "' is not part of the model definition";
    }
    NestedGroup& group = attrs->groups[idx];
    group.keys.clear();
    group.key_index.clear();
    for (const xml::Element* k : e->FindChildren("Key")) {
      DMX_ASSIGN_OR_RETURN(Value v, ReadValue(*k));
      group.InternKey(v);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-service trained state
// ---------------------------------------------------------------------------

void WriteDecisionTree(xml::Element* root, const DecisionTreeModel& model) {
  xml::Element* e = root->AddChild("TreeModel");
  e->SetAttr("caseCount", model.case_count());
  for (const DecisionTreeModel::TargetTree& tree : model.trees()) {
    xml::Element* t = e->AddChild("Tree");
    t->SetAttr("target", static_cast<int64_t>(tree.target));
    t->SetAttr("regression", static_cast<int64_t>(tree.regression ? 1 : 0));
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      const DecisionTreeModel::Node& node = tree.nodes[i];
      xml::Element* n = t->AddChild("Node");
      n->SetAttr("i", static_cast<int64_t>(i));
      n->SetAttr("then", static_cast<int64_t>(node.then_child));
      n->SetAttr("else", static_cast<int64_t>(node.else_child));
      n->SetAttr("support", node.support);
      n->SetAttr("score", node.score);
      n->SetAttr("mean", node.mean);
      n->SetAttr("variance", node.variance);
      if (!node.is_leaf()) {
        xml::Element* s = n->AddChild("Split");
        s->SetAttr("kind", static_cast<int64_t>(node.split.kind));
        s->SetAttr("attribute", static_cast<int64_t>(node.split.attribute));
        s->SetAttr("state", static_cast<int64_t>(node.split.state));
        s->SetAttr("threshold", node.split.threshold);
        s->SetAttr("group", static_cast<int64_t>(node.split.group));
        s->SetAttr("item", static_cast<int64_t>(node.split.item));
      }
      if (!node.class_counts.empty()) {
        n->AddChild("Counts")->set_text(JoinDoubles(node.class_counts));
      }
    }
  }
}

Result<std::unique_ptr<TrainedModel>> ReadDecisionTree(const xml::Element& e) {
  DMX_ASSIGN_OR_RETURN(double case_count, e.GetDoubleAttr("caseCount"));
  std::vector<DecisionTreeModel::TargetTree> trees;
  for (const xml::Element* t : e.FindChildren("Tree")) {
    DecisionTreeModel::TargetTree tree;
    DMX_ASSIGN_OR_RETURN(int64_t target, t->GetLongAttr("target"));
    DMX_ASSIGN_OR_RETURN(int64_t regression, t->GetLongAttr("regression"));
    tree.target = static_cast<int>(target);
    tree.regression = regression != 0;
    auto nodes = t->FindChildren("Node");
    tree.nodes.resize(nodes.size());
    for (const xml::Element* n : nodes) {
      DMX_ASSIGN_OR_RETURN(int64_t i, n->GetLongAttr("i"));
      if (static_cast<size_t>(i) >= tree.nodes.size()) {
        return IOError() << "tree node index " << i << " out of range";
      }
      DecisionTreeModel::Node& node = tree.nodes[i];
      DMX_ASSIGN_OR_RETURN(int64_t then_child, n->GetLongAttr("then"));
      DMX_ASSIGN_OR_RETURN(int64_t else_child, n->GetLongAttr("else"));
      node.then_child = static_cast<int>(then_child);
      node.else_child = static_cast<int>(else_child);
      DMX_ASSIGN_OR_RETURN(node.support, n->GetDoubleAttr("support"));
      DMX_ASSIGN_OR_RETURN(node.score, n->GetDoubleAttr("score"));
      DMX_ASSIGN_OR_RETURN(node.mean, n->GetDoubleAttr("mean"));
      DMX_ASSIGN_OR_RETURN(node.variance, n->GetDoubleAttr("variance"));
      const xml::Element* s = n->FindChild("Split");
      if (s != nullptr) {
        DMX_ASSIGN_OR_RETURN(int64_t kind, s->GetLongAttr("kind"));
        node.split.kind = static_cast<DecisionTreeModel::Split::Kind>(kind);
        DMX_ASSIGN_OR_RETURN(int64_t attribute, s->GetLongAttr("attribute"));
        node.split.attribute = static_cast<int>(attribute);
        DMX_ASSIGN_OR_RETURN(int64_t state, s->GetLongAttr("state"));
        node.split.state = static_cast<int>(state);
        DMX_ASSIGN_OR_RETURN(node.split.threshold,
                             s->GetDoubleAttr("threshold"));
        DMX_ASSIGN_OR_RETURN(int64_t group, s->GetLongAttr("group"));
        node.split.group = static_cast<int>(group);
        DMX_ASSIGN_OR_RETURN(int64_t item, s->GetLongAttr("item"));
        node.split.item = static_cast<int>(item);
      }
      const xml::Element* counts = n->FindChild("Counts");
      if (counts != nullptr) node.class_counts = SplitDoubles(counts->text());
    }
    trees.push_back(std::move(tree));
  }
  return std::unique_ptr<TrainedModel>(
      new DecisionTreeModel(std::move(trees), case_count));
}

void WriteNaiveBayes(xml::Element* root, const NaiveBayesModel& model) {
  xml::Element* e = root->AddChild("NaiveBayesModel");
  e->SetAttr("caseCount", model.case_count());
  e->SetAttr("alpha", model.alpha());
  for (const NaiveBayesModel::TargetStats& stats : model.targets()) {
    xml::Element* t = e->AddChild("Target");
    t->SetAttr("attribute", static_cast<int64_t>(stats.target));
    t->AddChild("ClassCounts")->set_text(JoinDoubles(stats.class_counts));
    for (const auto& [attr, table] : stats.cat_counts) {
      xml::Element* c = t->AddChild("Cat");
      c->SetAttr("attribute", static_cast<int64_t>(attr));
      WriteCountTable(c, table);
    }
    for (const auto& [attr, moments] : stats.cont_stats) {
      xml::Element* c = t->AddChild("Cont");
      c->SetAttr("attribute", static_cast<int64_t>(attr));
      for (size_t cls = 0; cls < moments.size(); ++cls) {
        xml::Element* m = c->AddChild("Moments");
        m->SetAttr("i", static_cast<int64_t>(cls));
        m->SetAttr("weight", moments[cls].weight);
        m->SetAttr("mean", moments[cls].mean);
        m->SetAttr("m2", moments[cls].m2);
      }
    }
    for (const auto& [group, table] : stats.group_counts) {
      xml::Element* g = t->AddChild("Group");
      g->SetAttr("group", static_cast<int64_t>(group));
      WriteCountTable(g, table);
    }
  }
}

Result<std::unique_ptr<TrainedModel>> ReadNaiveBayes(const xml::Element& e) {
  DMX_ASSIGN_OR_RETURN(double case_count, e.GetDoubleAttr("caseCount"));
  DMX_ASSIGN_OR_RETURN(double alpha, e.GetDoubleAttr("alpha"));
  std::vector<int> targets;
  auto target_elements = e.FindChildren("Target");
  for (const xml::Element* t : target_elements) {
    DMX_ASSIGN_OR_RETURN(int64_t attr, t->GetLongAttr("attribute"));
    targets.push_back(static_cast<int>(attr));
  }
  auto model = std::make_unique<NaiveBayesModel>(targets, alpha);
  model->set_case_count(case_count);
  for (size_t i = 0; i < target_elements.size(); ++i) {
    const xml::Element* t = target_elements[i];
    NaiveBayesModel::TargetStats& stats = model->mutable_targets()[i];
    const xml::Element* class_counts = t->FindChild("ClassCounts");
    if (class_counts != nullptr) {
      stats.class_counts = SplitDoubles(class_counts->text());
    }
    for (const xml::Element* c : t->FindChildren("Cat")) {
      DMX_ASSIGN_OR_RETURN(int64_t attr, c->GetLongAttr("attribute"));
      DMX_ASSIGN_OR_RETURN(stats.cat_counts[static_cast<int>(attr)],
                           ReadCountTable(*c));
    }
    for (const xml::Element* c : t->FindChildren("Cont")) {
      DMX_ASSIGN_OR_RETURN(int64_t attr, c->GetLongAttr("attribute"));
      auto& moments = stats.cont_stats[static_cast<int>(attr)];
      for (const xml::Element* m : c->FindChildren("Moments")) {
        DMX_ASSIGN_OR_RETURN(int64_t cls, m->GetLongAttr("i"));
        if (moments.size() <= static_cast<size_t>(cls)) {
          moments.resize(cls + 1);
        }
        DMX_ASSIGN_OR_RETURN(moments[cls].weight, m->GetDoubleAttr("weight"));
        DMX_ASSIGN_OR_RETURN(moments[cls].mean, m->GetDoubleAttr("mean"));
        DMX_ASSIGN_OR_RETURN(moments[cls].m2, m->GetDoubleAttr("m2"));
      }
    }
    for (const xml::Element* g : t->FindChildren("Group")) {
      DMX_ASSIGN_OR_RETURN(int64_t group, g->GetLongAttr("group"));
      DMX_ASSIGN_OR_RETURN(stats.group_counts[static_cast<int>(group)],
                           ReadCountTable(*g));
    }
  }
  return std::unique_ptr<TrainedModel>(std::move(model));
}

void WriteClustering(xml::Element* root, const ClusteringModel& model) {
  xml::Element* e = root->AddChild("ClusteringModel");
  e->SetAttr("caseCount", model.case_count());
  e->SetAttr("alpha", model.alpha());
  for (const ClusteringModel::ClusterStats& cluster : model.clusters()) {
    xml::Element* c = e->AddChild("Cluster");
    c->SetAttr("weight", cluster.weight);
    for (const auto& [attr, counts] : cluster.cat_counts) {
      xml::Element* a = c->AddChild("Cat");
      a->SetAttr("attribute", static_cast<int64_t>(attr));
      a->set_text(JoinDoubles(counts));
    }
    for (const auto& [attr, moments] : cluster.cont_stats) {
      xml::Element* a = c->AddChild("Cont");
      a->SetAttr("attribute", static_cast<int64_t>(attr));
      a->SetAttr("weight", moments.weight);
      a->SetAttr("mean", moments.mean);
      a->SetAttr("m2", moments.m2);
    }
    for (const auto& [group, counts] : cluster.group_counts) {
      xml::Element* a = c->AddChild("Group");
      a->SetAttr("group", static_cast<int64_t>(group));
      a->set_text(JoinDoubles(counts));
    }
  }
}

Result<std::unique_ptr<TrainedModel>> ReadClustering(const xml::Element& e) {
  DMX_ASSIGN_OR_RETURN(double case_count, e.GetDoubleAttr("caseCount"));
  DMX_ASSIGN_OR_RETURN(double alpha, e.GetDoubleAttr("alpha"));
  std::vector<ClusteringModel::ClusterStats> clusters;
  for (const xml::Element* c : e.FindChildren("Cluster")) {
    ClusteringModel::ClusterStats cluster;
    DMX_ASSIGN_OR_RETURN(cluster.weight, c->GetDoubleAttr("weight"));
    for (const xml::Element* a : c->FindChildren("Cat")) {
      DMX_ASSIGN_OR_RETURN(int64_t attr, a->GetLongAttr("attribute"));
      cluster.cat_counts[static_cast<int>(attr)] = SplitDoubles(a->text());
    }
    for (const xml::Element* a : c->FindChildren("Cont")) {
      DMX_ASSIGN_OR_RETURN(int64_t attr, a->GetLongAttr("attribute"));
      auto& moments = cluster.cont_stats[static_cast<int>(attr)];
      DMX_ASSIGN_OR_RETURN(moments.weight, a->GetDoubleAttr("weight"));
      DMX_ASSIGN_OR_RETURN(moments.mean, a->GetDoubleAttr("mean"));
      DMX_ASSIGN_OR_RETURN(moments.m2, a->GetDoubleAttr("m2"));
    }
    for (const xml::Element* a : c->FindChildren("Group")) {
      DMX_ASSIGN_OR_RETURN(int64_t group, a->GetLongAttr("group"));
      cluster.group_counts[static_cast<int>(group)] = SplitDoubles(a->text());
    }
    clusters.push_back(std::move(cluster));
  }
  return std::unique_ptr<TrainedModel>(
      new ClusteringModel(std::move(clusters), case_count, alpha));
}

void WriteAssociation(xml::Element* root, const AssociationModel& model) {
  xml::Element* e = root->AddChild("AssociationModel");
  e->SetAttr("caseCount", model.case_count());
  for (const AssociationModel::Item& item : model.items()) {
    xml::Element* i = e->AddChild("Item");
    i->SetAttr("group", static_cast<int64_t>(item.group));
    i->SetAttr("attribute", static_cast<int64_t>(item.attribute));
    i->SetAttr("state", static_cast<int64_t>(item.state));
  }
  for (const AssociationModel::Itemset& itemset : model.itemsets()) {
    xml::Element* i = e->AddChild("Itemset");
    i->SetAttr("support", itemset.support);
    i->set_text(JoinInts(itemset.items));
  }
  for (const AssociationModel::Rule& rule : model.rules()) {
    xml::Element* r = e->AddChild("Rule");
    r->SetAttr("consequent", static_cast<int64_t>(rule.consequent));
    r->SetAttr("support", rule.support);
    r->SetAttr("confidence", rule.confidence);
    r->SetAttr("lift", rule.lift);
    r->set_text(JoinInts(rule.antecedent));
  }
}

Result<std::unique_ptr<TrainedModel>> ReadAssociation(const xml::Element& e) {
  DMX_ASSIGN_OR_RETURN(double case_count, e.GetDoubleAttr("caseCount"));
  std::vector<AssociationModel::Item> items;
  for (const xml::Element* i : e.FindChildren("Item")) {
    AssociationModel::Item item;
    DMX_ASSIGN_OR_RETURN(int64_t group, i->GetLongAttr("group"));
    DMX_ASSIGN_OR_RETURN(int64_t attribute, i->GetLongAttr("attribute"));
    DMX_ASSIGN_OR_RETURN(int64_t state, i->GetLongAttr("state"));
    item.group = static_cast<int>(group);
    item.attribute = static_cast<int>(attribute);
    item.state = static_cast<int>(state);
    items.push_back(item);
  }
  std::vector<AssociationModel::Itemset> itemsets;
  for (const xml::Element* i : e.FindChildren("Itemset")) {
    AssociationModel::Itemset itemset;
    DMX_ASSIGN_OR_RETURN(itemset.support, i->GetDoubleAttr("support"));
    itemset.items = SplitInts(i->text());
    itemsets.push_back(std::move(itemset));
  }
  std::vector<AssociationModel::Rule> rules;
  for (const xml::Element* r : e.FindChildren("Rule")) {
    AssociationModel::Rule rule;
    DMX_ASSIGN_OR_RETURN(int64_t consequent, r->GetLongAttr("consequent"));
    rule.consequent = static_cast<int>(consequent);
    DMX_ASSIGN_OR_RETURN(rule.support, r->GetDoubleAttr("support"));
    DMX_ASSIGN_OR_RETURN(rule.confidence, r->GetDoubleAttr("confidence"));
    DMX_ASSIGN_OR_RETURN(rule.lift, r->GetDoubleAttr("lift"));
    rule.antecedent = SplitInts(r->text());
    rules.push_back(std::move(rule));
  }
  return std::unique_ptr<TrainedModel>(
      new AssociationModel(std::move(items), std::move(itemsets),
                           std::move(rules), case_count));
}

void WriteRegression(xml::Element* root, const LinearRegressionModel& model) {
  xml::Element* e = root->AddChild("RegressionModel");
  e->SetAttr("caseCount", model.case_count());
  e->SetAttr("ridge", model.ridge_lambda());
  for (const LinearRegressionModel::Feature& feature : model.features()) {
    xml::Element* f = e->AddChild("Feature");
    f->SetAttr("kind", static_cast<int64_t>(feature.kind));
    f->SetAttr("attribute", static_cast<int64_t>(feature.attribute));
    f->SetAttr("state", static_cast<int64_t>(feature.state));
    f->SetAttr("group", static_cast<int64_t>(feature.group));
    f->SetAttr("item", static_cast<int64_t>(feature.item));
  }
  for (const LinearRegressionModel::TargetRegression& reg : model.targets()) {
    xml::Element* t = e->AddChild("Target");
    t->SetAttr("attribute", static_cast<int64_t>(reg.target));
    t->SetAttr("yty", reg.yty);
    t->SetAttr("ySum", reg.y_sum);
    t->SetAttr("weightSum", reg.weight_sum);
    t->AddChild("XtX")->set_text(JoinDoubles(reg.xtx));
    t->AddChild("XtY")->set_text(JoinDoubles(reg.xty));
  }
}

Result<std::unique_ptr<TrainedModel>> ReadRegression(const xml::Element& e) {
  DMX_ASSIGN_OR_RETURN(double case_count, e.GetDoubleAttr("caseCount"));
  DMX_ASSIGN_OR_RETURN(double ridge, e.GetDoubleAttr("ridge"));
  std::vector<LinearRegressionModel::Feature> features;
  for (const xml::Element* f : e.FindChildren("Feature")) {
    LinearRegressionModel::Feature feature;
    DMX_ASSIGN_OR_RETURN(int64_t kind, f->GetLongAttr("kind"));
    feature.kind = static_cast<LinearRegressionModel::Feature::Kind>(kind);
    DMX_ASSIGN_OR_RETURN(int64_t attribute, f->GetLongAttr("attribute"));
    feature.attribute = static_cast<int>(attribute);
    DMX_ASSIGN_OR_RETURN(int64_t state, f->GetLongAttr("state"));
    feature.state = static_cast<int>(state);
    DMX_ASSIGN_OR_RETURN(int64_t group, f->GetLongAttr("group"));
    feature.group = static_cast<int>(group);
    DMX_ASSIGN_OR_RETURN(int64_t item, f->GetLongAttr("item"));
    feature.item = static_cast<int>(item);
    features.push_back(feature);
  }
  std::vector<int> targets;
  auto target_elements = e.FindChildren("Target");
  for (const xml::Element* t : target_elements) {
    DMX_ASSIGN_OR_RETURN(int64_t attr, t->GetLongAttr("attribute"));
    targets.push_back(static_cast<int>(attr));
  }
  auto model = std::make_unique<LinearRegressionModel>(std::move(features),
                                                       targets, ridge);
  model->set_case_count(case_count);
  for (size_t i = 0; i < target_elements.size(); ++i) {
    const xml::Element* t = target_elements[i];
    LinearRegressionModel::TargetRegression& reg = model->mutable_targets()[i];
    DMX_ASSIGN_OR_RETURN(reg.yty, t->GetDoubleAttr("yty"));
    DMX_ASSIGN_OR_RETURN(reg.y_sum, t->GetDoubleAttr("ySum"));
    DMX_ASSIGN_OR_RETURN(reg.weight_sum, t->GetDoubleAttr("weightSum"));
    const xml::Element* xtx = t->FindChild("XtX");
    const xml::Element* xty = t->FindChild("XtY");
    if (xtx != nullptr) reg.xtx = SplitDoubles(xtx->text());
    if (xty != nullptr) reg.xty = SplitDoubles(xty->text());
  }
  return std::unique_ptr<TrainedModel>(std::move(model));
}

void WriteSequence(xml::Element* root, const MarkovSequenceModel& model) {
  xml::Element* e = root->AddChild("SequenceModel");
  e->SetAttr("caseCount", model.case_count());
  e->SetAttr("alpha", model.alpha());
  for (const MarkovSequenceModel::Chain& chain : model.chains()) {
    xml::Element* c = e->AddChild("Chain");
    c->SetAttr("group", static_cast<int64_t>(chain.group));
    c->SetAttr("sequenceCount", chain.sequence_count);
    c->AddChild("Initial")->set_text(JoinDoubles(chain.initial));
    WriteCountTable(c, chain.transitions);
  }
}

Result<std::unique_ptr<TrainedModel>> ReadSequence(const xml::Element& e) {
  DMX_ASSIGN_OR_RETURN(double case_count, e.GetDoubleAttr("caseCount"));
  DMX_ASSIGN_OR_RETURN(double alpha, e.GetDoubleAttr("alpha"));
  std::vector<int> groups;
  auto chain_elements = e.FindChildren("Chain");
  for (const xml::Element* c : chain_elements) {
    DMX_ASSIGN_OR_RETURN(int64_t group, c->GetLongAttr("group"));
    groups.push_back(static_cast<int>(group));
  }
  auto model = std::make_unique<MarkovSequenceModel>(groups, alpha);
  model->set_case_count(case_count);
  for (size_t i = 0; i < chain_elements.size(); ++i) {
    const xml::Element* c = chain_elements[i];
    MarkovSequenceModel::Chain& chain = model->mutable_chains()[i];
    DMX_ASSIGN_OR_RETURN(chain.sequence_count,
                         c->GetDoubleAttr("sequenceCount"));
    const xml::Element* initial = c->FindChild("Initial");
    if (initial != nullptr) chain.initial = SplitDoubles(initial->text());
    DMX_ASSIGN_OR_RETURN(chain.transitions, ReadCountTable(*c));
  }
  return std::unique_ptr<TrainedModel>(std::move(model));
}

}  // namespace

Result<std::string> SerializeModel(const MiningModel& model) {
  xml::Element root("PMML");
  root.SetAttr("version", std::string("1.0"));
  root.SetAttr("x-generator", std::string("OpenDMX"));
  xml::Element* header = root.AddChild("Header");
  header->SetAttr("description",
                  "OpenDMX mining model '" + model.definition().model_name +
                      "' (" + model.definition().service_name + ")");
  root.AddChild("X-Definition")->set_text(model.definition().ToDmx());
  WriteAttributeSet(&root, model.attributes());

  if (model.is_trained()) {
    const TrainedModel* trained = model.trained();
    if (const auto* dt = dynamic_cast<const DecisionTreeModel*>(trained)) {
      WriteDecisionTree(&root, *dt);
    } else if (const auto* nb =
                   dynamic_cast<const NaiveBayesModel*>(trained)) {
      WriteNaiveBayes(&root, *nb);
    } else if (const auto* cl =
                   dynamic_cast<const ClusteringModel*>(trained)) {
      WriteClustering(&root, *cl);
    } else if (const auto* ar =
                   dynamic_cast<const AssociationModel*>(trained)) {
      WriteAssociation(&root, *ar);
    } else if (const auto* lr =
                   dynamic_cast<const LinearRegressionModel*>(trained)) {
      WriteRegression(&root, *lr);
    } else if (const auto* seq =
                   dynamic_cast<const MarkovSequenceModel*>(trained)) {
      WriteSequence(&root, *seq);
    } else {
      return NotSupported() << "service '" << trained->service_name()
                            << "' has no PMML serializer";
    }
  }
  return "<?xml version=\"1.0\"?>\n" + root.ToString();
}

Result<std::unique_ptr<MiningModel>> DeserializeModel(
    const std::string& document, const ServiceRegistry& registry) {
  DMX_ASSIGN_OR_RETURN(xml::ElementPtr root, xml::Parse(document));
  if (root->name() != "PMML") {
    return IOError() << "expected a <PMML> root element, got <" << root->name()
                     << ">";
  }
  const xml::Element* definition_element = root->FindChild("X-Definition");
  if (definition_element == nullptr) {
    return IOError() << "document has no X-Definition element";
  }
  DMX_ASSIGN_OR_RETURN(ModelDefinition definition,
                       ParseCreateMiningModel(definition_element->text()));
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<MiningModel> model,
                       MiningModel::Create(std::move(definition), registry));
  DMX_RETURN_IF_ERROR(ReadAttributeSet(*root, model->mutable_attributes()));

  struct Reader {
    const char* element;
    Result<std::unique_ptr<TrainedModel>> (*read)(const xml::Element&);
  };
  static const Reader kReaders[] = {
      {"TreeModel", ReadDecisionTree},
      {"NaiveBayesModel", ReadNaiveBayes},
      {"ClusteringModel", ReadClustering},
      {"AssociationModel", ReadAssociation},
      {"RegressionModel", ReadRegression},
      {"SequenceModel", ReadSequence},
  };
  for (const Reader& reader : kReaders) {
    const xml::Element* e = root->FindChild(reader.element);
    if (e == nullptr) continue;
    DMX_ASSIGN_OR_RETURN(std::unique_ptr<TrainedModel> trained,
                         reader.read(*e));
    model->AdoptTrainedState(std::move(trained));
    break;
  }
  return model;
}

Status SaveModelToFile(const MiningModel& model, const std::string& path,
                       Env* env) {
  if (env == nullptr) env = Env::Default();
  DMX_ASSIGN_OR_RETURN(std::string document, SerializeModel(model));
  return env->AtomicWriteFile(path, document)
      .WithContext("exporting model '" + model.definition().model_name + "'");
}

Result<std::unique_ptr<MiningModel>> LoadModelFromFile(
    const std::string& path, const ServiceRegistry& registry, Env* env) {
  if (env == nullptr) env = Env::Default();
  Result<std::string> document = env->ReadFileToString(path);
  if (!document.ok()) {
    return document.status().WithContext("importing model from '" + path +
                                         "'");
  }
  return DeserializeModel(*document, registry);
}

}  // namespace dmx
