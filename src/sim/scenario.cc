#include "sim/scenario.h"

#include <sstream>

#include "common/flags.h"

namespace dcrd {

const char* RouterName(RouterKind kind) {
  switch (kind) {
    case RouterKind::kDcrd: return "DCRD";
    case RouterKind::kRTree: return "R-Tree";
    case RouterKind::kDTree: return "D-Tree";
    case RouterKind::kOracle: return "ORACLE";
    case RouterKind::kMultipath: return "Multipath";
  }
  return "?";
}

RouterKind ParseRouter(const std::string& flag, const std::string& name) {
  for (const RouterKind kind :
       {RouterKind::kDcrd, RouterKind::kRTree, RouterKind::kDTree,
        RouterKind::kOracle, RouterKind::kMultipath}) {
    if (name == RouterName(kind)) return kind;
  }
  ExitOnBadFlagValue(flag, name, "DCRD, R-Tree, D-Tree, ORACLE or Multipath");
}

std::vector<RouterKind> ParseRouters(const std::string& flag,
                                     const std::string& names) {
  std::vector<RouterKind> routers;
  for (std::size_t start = 0;;) {
    const std::size_t comma = names.find(',', start);
    routers.push_back(ParseRouter(flag, names.substr(start, comma - start)));
    if (comma == std::string::npos) return routers;
    start = comma + 1;
  }
}

TopologyKind ParseTopology(const std::string& flag, const std::string& name) {
  if (name == "degree") return TopologyKind::kRandomDegree;
  if (name == "mesh") return TopologyKind::kFullMesh;
  ExitOnBadFlagValue(flag, name, "degree or mesh");
}

OrderingPolicy ParseOrdering(const std::string& flag,
                             const std::string& name) {
  if (name == "theorem1") return OrderingPolicy::kTheorem1;
  if (name == "delay") return OrderingPolicy::kDelayFirst;
  if (name == "reliability") return OrderingPolicy::kReliabilityFirst;
  ExitOnBadFlagValue(flag, name, "theorem1, delay or reliability");
}

std::string ScenarioConfig::Describe() const {
  std::ostringstream os;
  os << RouterName(router) << " n=" << node_count << " "
     << (topology == TopologyKind::kFullMesh
             ? std::string("full-mesh")
             : "degree-" + std::to_string(degree))
     << " Pf=" << failure_probability << " Pl=" << loss_rate
     << " m=" << max_transmissions << " qos=" << qos_factor
     << " T=" << sim_time.seconds() << "s seed=" << seed;
  // Appended only when enabled so descriptions of existing experiments
  // stay byte-identical.
  if (broker_mtbf > SimDuration::Zero()) {
    os << " mtbf=" << broker_mtbf.seconds() << "s mttr="
       << broker_mttr.seconds() << "s";
  }
  if (peer_death_detection) os << " peer-death";
  return os.str();
}

}  // namespace dcrd
