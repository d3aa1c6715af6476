#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {

RegressionTree::RegressionTree(int max_depth, std::size_t min_samples_leaf)
    : max_depth_(max_depth), min_samples_leaf_(min_samples_leaf) {
  DROPPKT_EXPECT(max_depth_ >= 1, "RegressionTree: max_depth must be >= 1");
  DROPPKT_EXPECT(min_samples_leaf_ >= 1,
                 "RegressionTree: min_samples_leaf must be >= 1");
}

void RegressionTree::fit(const Dataset& data, const std::vector<double>& targets,
                         std::span<const std::size_t> indices) {
  DROPPKT_EXPECT(targets.size() == data.size(),
                 "RegressionTree: one target per dataset row");
  DROPPKT_EXPECT(!indices.empty(), "RegressionTree: empty sample");
  nodes_.clear();
  leaf_ids_.clear();
  std::vector<std::size_t> idx(indices.begin(), indices.end());
  build(data, targets, idx, 0);
}

std::int32_t RegressionTree::build(const Dataset& data,
                                   const std::vector<double>& targets,
                                   std::vector<std::size_t>& indices,
                                   int depth) {
  double sum = 0.0;
  for (std::size_t i : indices) sum += targets[i];
  const double node_mean = sum / static_cast<double>(indices.size());

  auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.feature = -1;
    leaf.value = node_mean;
    leaf.leaf_index = leaf_ids_.size();
    nodes_.push_back(leaf);
    const auto id = static_cast<std::int32_t>(nodes_.size() - 1);
    leaf_ids_.push_back(id);
    return id;
  };

  if (depth >= max_depth_ || indices.size() < 2 * min_samples_leaf_) {
    return make_leaf();
  }

  // Best squared-error split: maximize sum^2/n reduction.
  double node_score =
      sum * sum / static_cast<double>(indices.size());
  struct Best {
    double gain = 1e-12;
    int feature = -1;
    double threshold = 0.0;
  } best;

  std::vector<std::pair<double, double>> sorted;  // (value, target)
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    sorted.clear();
    for (std::size_t i : indices) {
      sorted.emplace_back(data.row(i)[f], targets[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;
    double left_sum = 0.0;
    const std::size_t n = sorted.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_sum += sorted[i].second;
      if (sorted[i].first == sorted[i + 1].first) continue;
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < min_samples_leaf_ || nr < min_samples_leaf_) continue;
      const double right_sum = sum - left_sum;
      const double score = left_sum * left_sum / static_cast<double>(nl) +
                           right_sum * right_sum / static_cast<double>(nr);
      const double gain = score - node_score;
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        double thr = 0.5 * (sorted[i].first + sorted[i + 1].first);
        if (!(thr >= sorted[i].first && thr < sorted[i + 1].first)) {
          thr = sorted[i].first;
        }
        best.threshold = thr;
      }
    }
  }

  if (best.feature < 0) return make_leaf();

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    if (data.row(i)[static_cast<std::size_t>(best.feature)] <= best.threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  indices.clear();
  indices.shrink_to_fit();

  Node node;
  node.feature = best.feature;
  node.threshold = best.threshold;
  nodes_.push_back(node);
  const auto me = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t l = build(data, targets, left_idx, depth + 1);
  const std::int32_t r = build(data, targets, right_idx, depth + 1);
  nodes_[static_cast<std::size_t>(me)].left = l;
  nodes_[static_cast<std::size_t>(me)].right = r;
  return me;
}

const RegressionTree::Node& RegressionTree::descend(
    std::span<const double> features) const {
  DROPPKT_EXPECT(!nodes_.empty(), "RegressionTree: predict before fit");
  std::size_t cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    cur = static_cast<std::size_t>(
        features[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                     : n.right);
  }
  return nodes_[cur];
}

double RegressionTree::predict(std::span<const double> features) const {
  return descend(features).value;
}

std::size_t RegressionTree::leaf_id(std::span<const double> features) const {
  return descend(features).leaf_index;
}

void RegressionTree::set_leaf_value(std::size_t leaf, double value) {
  DROPPKT_EXPECT(leaf < leaf_ids_.size(),
                 "RegressionTree: leaf index out of range");
  nodes_[static_cast<std::size_t>(leaf_ids_[leaf])].value = value;
}

GradientBoosting::GradientBoosting(GradientBoostingParams params)
    : params_(params) {
  DROPPKT_EXPECT(params_.num_rounds >= 1, "GradientBoosting: need >= 1 round");
  DROPPKT_EXPECT(params_.subsample > 0.0 && params_.subsample <= 1.0,
                 "GradientBoosting: subsample must be in (0,1]");
}

void GradientBoosting::fit(const Dataset& train) {
  DROPPKT_EXPECT(train.size() >= 4, "GradientBoosting: need >= 4 rows");
  num_classes_ = train.num_classes();
  num_features_ = train.num_features();
  ensembles_.assign(static_cast<std::size_t>(num_classes_), {});
  base_score_.assign(static_cast<std::size_t>(num_classes_), 0.0);

  const std::size_t n = train.size();
  util::Rng rng(params_.seed);

  for (int cls = 0; cls < num_classes_; ++cls) {
    auto& ensemble = ensembles_[static_cast<std::size_t>(cls)];
    ensemble.reserve(params_.num_rounds);

    // Prior log-odds of the class.
    std::size_t positives = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (train.label(i) == cls) ++positives;
    }
    const double p0 = std::clamp(
        static_cast<double>(positives) / static_cast<double>(n), 1e-4,
        1.0 - 1e-4);
    base_score_[static_cast<std::size_t>(cls)] = std::log(p0 / (1.0 - p0));

    std::vector<double> raw(n, base_score_[static_cast<std::size_t>(cls)]);
    std::vector<double> residual(n);

    for (std::size_t round = 0; round < params_.num_rounds; ++round) {
      // Negative gradient of the logistic loss: y - p.
      for (std::size_t i = 0; i < n; ++i) {
        const double p = 1.0 / (1.0 + std::exp(-raw[i]));
        const double y = train.label(i) == cls ? 1.0 : 0.0;
        residual[i] = y - p;
      }
      // Row subsampling (stochastic gradient boosting).
      std::vector<std::size_t> sample;
      if (params_.subsample < 1.0) {
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.bernoulli(params_.subsample)) sample.push_back(i);
        }
        if (sample.size() < 2 * params_.min_samples_leaf) {
          sample.resize(n);
          std::iota(sample.begin(), sample.end(), std::size_t{0});
        }
      } else {
        sample.resize(n);
        std::iota(sample.begin(), sample.end(), std::size_t{0});
      }

      RegressionTree tree(params_.max_depth, params_.min_samples_leaf);
      tree.fit(train, residual, sample);

      // Newton leaf values: sum(residual) / sum(p(1-p)) per leaf.
      std::vector<double> num(tree.leaf_count(), 0.0);
      std::vector<double> den(tree.leaf_count(), 1e-9);
      for (std::size_t i : sample) {
        const std::size_t leaf = tree.leaf_id(train.row(i));
        const double p = 1.0 / (1.0 + std::exp(-raw[i]));
        num[leaf] += residual[i];
        den[leaf] += p * (1.0 - p);
      }
      for (std::size_t leaf = 0; leaf < tree.leaf_count(); ++leaf) {
        tree.set_leaf_value(leaf, num[leaf] / den[leaf]);
      }

      for (std::size_t i = 0; i < n; ++i) {
        raw[i] += params_.learning_rate * tree.predict(train.row(i));
      }
      ensemble.push_back(std::move(tree));
    }
  }
}

double GradientBoosting::raw_score(std::span<const double> features,
                                   int cls) const {
  double score = base_score_[static_cast<std::size_t>(cls)];
  for (const auto& tree : ensembles_[static_cast<std::size_t>(cls)]) {
    score += params_.learning_rate * tree.predict(features);
  }
  return score;
}

std::vector<double> GradientBoosting::predict_proba(
    std::span<const double> features) const {
  DROPPKT_EXPECT(!ensembles_.empty(), "GradientBoosting: predict before fit");
  DROPPKT_EXPECT(features.size() == num_features_,
                 "GradientBoosting: feature width mismatch");
  std::vector<double> proba(static_cast<std::size_t>(num_classes_));
  double total = 0.0;
  for (int c = 0; c < num_classes_; ++c) {
    const double s = raw_score(features, c);
    proba[static_cast<std::size_t>(c)] = 1.0 / (1.0 + std::exp(-s));
    total += proba[static_cast<std::size_t>(c)];
  }
  if (total > 0.0) {
    for (auto& p : proba) p /= total;
  }
  return proba;
}

int GradientBoosting::predict(std::span<const double> features) const {
  const auto p = predict_proba(features);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

}  // namespace droppkt::ml
