"""Hardware-aware neural architecture search with shaped multi-criteria
Q-learning and a learned execution-behavior predictor."""

from .bob import (BobConfig, BobModel, MetaPrediction, learn_meta, load_model,
                  predict, predict_network, save_model, score)
from .controller import (SearchSpace, SearchTrace, ShapingConfig,
                         ShapingState, brute_force_best_chain,
                         check_epsilon_schedule, greedy_rollout, run_search)
from .dataset import MetaDataset, ingest_stats, oversample
from .design_space import (ActionCatalog, ArchLayerSpec, CandidateNetwork,
                           ContextSpec, LayerTemplate, apply_action,
                           embed_state, legal_actions, parse_network)
from .oracle import (SyntheticOracle, SyntheticTaskSpec, SynthStatsModel,
                     TabularOracle, gen_synth_stats)

__version__ = "0.1.0"
