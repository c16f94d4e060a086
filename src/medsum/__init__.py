"""Entity-grounded, prompt-chained medical dialogue summarization.

A staged pipeline extracts medical entities (with present/absent/unknown
affirmation status) from each part of a doctor-patient conversation,
collates them into a ledger, optionally re-resolves the unknowns against the
whole dialogue, and summarizes conditioned on the ledger. A concept-level
metric suite scores generated summaries against references. All completion
traffic flows through a cache/retry/replay gateway, so runs are
reproducible offline.
"""

from .backend import CompletionClient, ScriptedTransport
from .chain import ChainConfig, ChainDeps, run_medsum_ent
from .model import PromptKind, validate_encounter
from .promptkit import load_templates

__version__ = "0.1.0"
