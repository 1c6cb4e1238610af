#pragma once

// Correctness checks of one run. Every check compares the program against
// a replay of the inputs that needs no program code beyond the Dsu oracle.

#include <string>
#include <vector>

#include "inputs.hpp"
#include "ladder.hpp"

namespace perfbench {

/// Replays the answered frames of every connection, in order, against the
/// expected presence of that connection's stripe: a kOk update must have
/// returned what the replay predicts; a refused frame applied nothing.
/// Advances `presence`; returns the number of mismatching update values.
uint64_t replay_frames(const Inputs& in, const FrameLogs& logs,
                       std::vector<uint8_t>& presence);

/// representative(v) of `dc` equals that of a Dsu over the present edges,
/// for every vertex. On failure, `why` names the first bad vertex.
bool matches_dsu(DynamicConnectivity& dc, const Inputs& in,
                 const std::vector<uint8_t>& presence, std::string& why);

/// Recovers a fresh `full` from the snapshot and journal and checks that it
/// holds exactly the expected edge set. `recover_ms` gets the replay time.
bool recovery_matches(const std::string& snapshot, const std::string& journal,
                      const Inputs& in, const std::vector<uint8_t>& presence,
                      double& recover_ms, std::string& why);

}  // namespace perfbench
