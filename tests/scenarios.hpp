// Shared test scenarios.
#pragma once

#include "topology/figure31.hpp"

namespace miro::test {

/// The running example of Figures 1.1, 2.1 and 3.1 (topology/figure31.hpp).
using Figure31Topology = topo::Figure31;

}  // namespace miro::test
