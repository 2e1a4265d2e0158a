// Linear elastic pipeline fixture: a chain of elastic buffers wired
// directly on channels, for the pipeline property tests.
#pragma once

#include <string>
#include <vector>

#include "elastic/channel.hpp"
#include "elastic/elastic_buffer.hpp"
#include "sim/simulator.hpp"

namespace mte::elastic {

/// A chain of `stages` elastic buffers. Channel 0 is the pipeline input,
/// channel `stages` the output. All channels and buffers are owned by the
/// simulator.
template <typename T>
class LinearPipeline {
 public:
  LinearPipeline(sim::Simulator& s, const std::string& name, std::size_t stages) {
    channels_.reserve(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i) {
      channels_.push_back(
          &s.make<Channel<T>>(s, name + ".ch" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < stages; ++i) {
      buffers_.push_back(&s.make<ElasticBuffer<T>>(
          s, name + ".eb" + std::to_string(i), *channels_[i], *channels_[i + 1]));
    }
  }

  [[nodiscard]] Channel<T>& in() noexcept { return *channels_.front(); }
  [[nodiscard]] Channel<T>& out() noexcept { return *channels_.back(); }
  [[nodiscard]] Channel<T>& channel(std::size_t i) { return *channels_.at(i); }
  [[nodiscard]] ElasticBuffer<T>& buffer(std::size_t i) { return *buffers_.at(i); }
  [[nodiscard]] std::size_t stages() const noexcept { return buffers_.size(); }

 private:
  std::vector<Channel<T>*> channels_;
  std::vector<ElasticBuffer<T>*> buffers_;
};

}  // namespace mte::elastic
