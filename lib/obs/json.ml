include Consensus_util.Json
