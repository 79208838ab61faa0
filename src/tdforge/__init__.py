"""Spanning-tree-hosted tree decompositions: constructions, transforms,
certificates, and exact search."""

__version__ = "0.1.0"

from .certificates import (CertificateCheck, WidthCertificate, bag_lower_bound,
                           reflected_matching, verify_certificate)
from .constructions import (GadgetInstance, GadgetSchedule, ReflectedTree,
                            attach_gadgets, complete_ary_tree, gadget_schedule,
                            reflected_tree, reflected_tree_order,
                            reflected_tree_size, toy_schedule)
from .decomposition import (TreeDecomposition, ValidationReport, is_anchored,
                            validate)
from .errors import (CapExceeded, CertificateContradiction,
                     CertificateRejected, HostNotSpanning, HypothesisViolated,
                     ReductionInvalid, ScheduleTooLarge, SizeExceeded,
                     StructureViolation, TdforgeError)
from .graphs import (Cycle, Graph, Matching, complete_graph, cycle_graph, edge,
                     is_connected, is_spanning_tree, is_tree, path_graph)
from .search import (DeciderResult, count_spanning_trees, decide_over_trees,
                     enumerate_spanning_trees, exact_treewidth,
                     min_anchored_spanning_width, min_width_on_tree,
                     minor_min_width, sample_spanning_trees)
from .transforms import (MinorModel, complete_model, minor_to_spanning,
                         reduce_to_anchored, validate_model)

__all__ = [name for name in dir() if not name.startswith("_")]
