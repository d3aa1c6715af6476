// Common interface for all classifiers in droppkt::ml.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace droppkt::util {
class ThreadPool;
}

namespace droppkt::ml {

/// Supervised multi-class classifier.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on the given dataset. May be called again to retrain.
  virtual void fit(const Dataset& train) = 0;

  /// Predict the class of one feature vector (width must match training).
  virtual int predict(std::span<const double> features) const = 0;

  /// Per-class probabilities, one per class of the training set. Sums
  /// to 1.
  virtual std::vector<double> predict_proba(
      std::span<const double> features) const = 0;
};

/// Factory: cross-validation needs a fresh, identically-configured model
/// per fold.
using ClassifierFactory = std::unique_ptr<Classifier> (*)();

/// Mixin for classifiers whose training can fan out over a caller-owned
/// thread pool. cross_validate uses it to schedule work at fold x tree
/// granularity on ONE shared pool instead of a pool per fold — the model
/// fitted via fit_on_pool must be bit-identical to fit().
class PoolTrainable {
 public:
  virtual ~PoolTrainable() = default;
  virtual void fit_on_pool(const Dataset& train, util::ThreadPool& pool) = 0;
};

}  // namespace droppkt::ml
