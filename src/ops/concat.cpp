#include "ops/concat.hpp"

#include <stdexcept>
#include <vector>

namespace willump::ops {

data::Value ConcatOp::eval_batch(std::span<const data::Value> inputs) const {
  std::vector<const data::FeatureMatrix*> blocks;
  blocks.reserve(inputs.size());
  for (const auto& v : inputs) {
    if (!v.is_features()) {
      throw std::invalid_argument("concat: expects feature-matrix inputs");
    }
    blocks.push_back(&v.features());
  }
  return data::Value(data::FeatureMatrix::hconcat_all(blocks));
}

}  // namespace willump::ops
