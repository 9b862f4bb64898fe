"""The layer map: which public functions of the program form each layer.

Each entry names a module and a function or ``Class.method`` in it.
:func:`resolve` imports every module and looks every name up, raising
:class:`LayerMapError` when one no longer exists, so a rename cannot
silently drop a layer from the traced breakdown.  :func:`install` swaps
each resolved function for a span-recording wrapper: methods are replaced
on their class, module functions in every loaded ``repro`` module that
holds them (``from x import f`` copies included).
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["LAYERS", "LayerMapError", "Target", "resolve", "install"]

#: layer -> ((module, "function" or "Class.method"), ...)
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "scenario": (
        ("repro.sim.scenario", "build_preliminary_scenario"),
        ("repro.sim.scenario", "build_evaluation_scenario"),
        ("repro.network.gtitm", "TransitStubGenerator.generate"),
        ("repro.workload.subscriptions", "PreliminarySubscriptionModel.generate"),
        ("repro.workload.subscriptions", "EvaluationSubscriptionModel.generate"),
        ("repro.workload.publications", "PreliminaryPublicationModel.sample"),
        ("repro.workload.publications", "PreliminaryPublicationModel.cell_pmf"),
        ("repro.workload.publications", "MixturePublicationModel.sample"),
        ("repro.workload.publications", "MixturePublicationModel.cell_pmf"),
        ("repro.online.soak", "generate_stream"),
        ("repro.sim.experiment", "ExperimentContext.__init__"),
    ),
    "grid": (
        ("repro.grid.cells", "build_cell_set"),
        ("repro.grid.cells", "build_membership_matrix"),
        ("repro.grid.cells", "cell_set_from_membership"),
    ),
    "broker": (
        ("repro.broker.broker", "ContentBroker.subscribe"),
        ("repro.broker.broker", "ContentBroker.unsubscribe"),
        ("repro.broker.broker", "ContentBroker.attach"),
        ("repro.broker.broker", "ContentBroker.apply_join"),
        ("repro.broker.broker", "ContentBroker.apply_leave"),
        ("repro.broker.broker", "ContentBroker.notify_change"),
        ("repro.broker.broker", "ContentBroker.rebuild"),
        ("repro.broker.broker", "ContentBroker.publish"),
    ),
    "clustering": (
        ("repro.clustering.kmeans", "KMeansClustering.fit"),
        ("repro.clustering.kmeans", "ForgyKMeansClustering.fit"),
        ("repro.clustering.mst", "MSTClustering.fit"),
        ("repro.clustering.pairwise", "PairwiseGroupingClustering.fit"),
        ("repro.clustering.pairwise", "ApproximatePairwiseClustering.fit"),
        ("repro.clustering.base", "Clustering.__init__"),
        ("repro.clustering.base", "Clustering.total_expected_waste"),
        ("repro.clustering.distance", "expected_waste"),
        ("repro.clustering.distance", "pairwise_waste_matrix"),
        ("repro.clustering.distance", "waste_to_clusters"),
        ("repro.sim.experiment", "ExperimentContext.run_grid_algorithm"),
    ),
    "kernels": (
        ("repro.kernels.bitset", "pack_rows"),
        ("repro.kernels.bitset", "unpack_rows"),
        ("repro.kernels.bitset", "popcount_words"),
        ("repro.kernels.bitset", "popcount_rows"),
        ("repro.kernels.bitset", "intersect_count_rows"),
        ("repro.kernels.bitset", "union_count_rows"),
        ("repro.kernels.bitset", "symmetric_difference_count_rows"),
        ("repro.kernels.bitset", "or_reduce_rows"),
        ("repro.kernels.backends", "NumpyBackend.popcount_rows"),
        ("repro.kernels.backends", "NumpyBackend.intersect_counts"),
        ("repro.kernels.backends", "NumpyBackend.waste_matrix"),
        ("repro.kernels.backends", "NumpyBackend.group_mass"),
        ("repro.kernels.backends", "NumpyBackend.group_scorer"),
        ("repro.kernels.backends", "NumpyBackend.pairwise_fit"),
        ("repro.kernels.native", "NativeBackend.popcount_rows"),
        ("repro.kernels.native", "NativeBackend.intersect_counts"),
        ("repro.kernels.native", "NativeBackend.waste_matrix"),
        ("repro.kernels.native", "NativeBackend.group_mass"),
        ("repro.kernels.native", "NativeBackend.group_scorer"),
        ("repro.kernels.native", "NativeBackend.pairwise_fit"),
    ),
    "matching": (
        ("repro.matching.matchers", "GridMatcher.__init__"),
        ("repro.matching.matchers", "GridMatcher.match"),
        ("repro.matching.matchers", "GridMatcher.match_batch"),
        ("repro.matching.matchers", "BruteForceMatcher.match"),
        ("repro.matching.matchers", "BruteForceMatcher.match_batch"),
        ("repro.matching.plan", "DeliveryPlan.audit"),
        ("repro.matching.plan", "DeliveryPlan.validate_complete"),
        ("repro.workload.subscriptions", "SubscriptionSet.interested_subscribers"),
        ("repro.workload.subscriptions", "SubscriptionSet.batch_interested_subscribers"),
        ("repro.sim.experiment", "ExperimentContext.evaluate_matcher"),
    ),
    "delivery": (
        ("repro.delivery.dispatcher", "Dispatcher.__init__"),
        ("repro.delivery.dispatcher", "Dispatcher.plan_cost"),
        ("repro.delivery.dispatcher", "Dispatcher.plan_costs"),
        ("repro.delivery.dispatcher", "Dispatcher.group_nodes"),
        ("repro.delivery.dispatcher", "Dispatcher.group_cost"),
        ("repro.delivery.dispatcher", "Dispatcher.invalidate"),
        ("repro.delivery.dispatcher", "Dispatcher.invalidate_members"),
        ("repro.delivery.dispatcher", "Dispatcher.unicast_reference"),
        ("repro.delivery.dispatcher", "Dispatcher.broadcast_reference"),
        ("repro.delivery.dispatcher", "Dispatcher.ideal_reference"),
        ("repro.delivery.adaptive", "AdaptiveDeliveryPolicy.decide"),
        ("repro.network.multicast", "unicast_cost"),
        ("repro.network.multicast", "broadcast_cost"),
        ("repro.network.multicast", "dense_multicast_cost"),
        ("repro.network.multicast", "ideal_multicast_cost"),
        ("repro.network.multicast", "application_multicast_cost"),
        ("repro.network.multicast", "sparse_multicast_cost"),
        ("repro.network.multicast", "overlay_multicast_cost"),
        ("repro.sim.experiment", "ExperimentContext.reference_costs"),
    ),
    "online": (
        ("repro.online.soak", "run_soak"),
        ("repro.online.soak", "finalize_equivalence"),
        ("repro.online.service", "BrokerService.run"),
        ("repro.online.maintainer", "ClusterMaintainer.join"),
        ("repro.online.maintainer", "ClusterMaintainer.leave"),
        ("repro.online.maintainer", "ClusterMaintainer.maybe_rebuild"),
        ("repro.online.maintainer", "ClusterMaintainer.capture"),
        ("repro.online.queues", "BoundedQueue.offer"),
        ("repro.online.queues", "BoundedQueue.pop"),
    ),
    "fleet": (
        ("repro.fleet.soak", "run_fleet"),
        ("repro.fleet.soak", "route_fleet_stream"),
        ("repro.fleet.soak", "run_shard_task"),
        ("repro.fleet.sharding", "ShardMap.__init__"),
        ("repro.fleet.sharding", "ShardMap.home_shard"),
        ("repro.fleet.coordinator", "FleetCoordinator.note_epoch"),
        ("repro.fleet.runtime", "ShardService.register_initial"),
        ("repro.fleet.runtime", "ShardMaintainer.capture"),
    ),
    "routing": (
        ("repro.network.routing", "RoutingTables.__init__"),
        ("repro.network.routing", "RoutingTables.shortest_paths"),
        ("repro.network.routing", "RoutingTables.distance_matrix"),
        ("repro.network.routing", "RoutingTables.precompute"),
        ("repro.network.routing", "RoutingTables.fail_link"),
        ("repro.network.routing", "RoutingTables.heal_link"),
        ("repro.network.routing", "RoutingTables.fail_node"),
        ("repro.network.routing", "RoutingTables.heal_node"),
    ),
    "faults": (
        ("repro.faults.chaos", "ChaosRunner.run"),
        ("repro.faults.chaos", "ChaosRunner.sample_publications"),
        ("repro.faults.schedule", "FaultSchedule.generate"),
    ),
    "dht": (
        ("repro.dht.overlay", "PastryOverlay.__init__"),
        ("repro.dht.overlay", "PastryOverlay.sync"),
        ("repro.dht.overlay", "PastryOverlay.universe_for"),
        ("repro.dht.overlay", "OverlayUniverse.route"),
        ("repro.dht.overlay", "OverlayUniverse.route_cost"),
        ("repro.dht.scribe", "RendezvousDelivery.group_cost"),
        ("repro.dht.scribe", "RendezvousDelivery.tree"),
        ("repro.dht.scribe", "overlay_for"),
    ),
    "persistence": (
        ("repro.persistence.io", "save_shard_checkpoint"),
        ("repro.persistence.io", "load_shard_checkpoint"),
        ("repro.persistence.io", "save_fleet_state"),
        ("repro.persistence.io", "load_fleet_state"),
    ),
}


class LayerMapError(LookupError):
    """A function listed in the layer map does not exist."""


@dataclass(frozen=True)
class Target:
    """One resolved layer-map entry."""

    layer: str
    qualname: str
    #: the class holding the method, or None for a module function
    owner: Optional[type]
    attr: str
    #: the raw attribute (function, classmethod or staticmethod object)
    raw: object

    @property
    def name(self) -> str:
        return f"{self.layer}/{self.qualname}"


def resolve(layers: Mapping[str, Sequence[Tuple[str, str]]] = LAYERS) -> List[Target]:
    """Look every listed function up; raise on the first missing one."""
    targets = []
    for layer, entries in layers.items():
        for module_name, qualname in entries:
            where = f"layer {layer!r}: {module_name}:{qualname}"
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                raise LayerMapError(f"{where} (module missing: {exc})") from exc
            owner_name, _, attr = qualname.rpartition(".")
            owner = None
            namespace = vars(module)
            if owner_name:
                owner = getattr(module, owner_name, None)
                if not isinstance(owner, type):
                    raise LayerMapError(f"{where} no longer exists")
                namespace = vars(owner)
            raw = namespace.get(attr)
            function = getattr(raw, "__func__", raw)
            if not callable(function):
                raise LayerMapError(f"{where} no longer exists")
            targets.append(Target(layer, qualname, owner, attr, raw))
    return targets


def _loaded_repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(targets: Sequence[Target], wrap: Callable[[Callable, str], Callable]) -> int:
    """Replace every target by ``wrap(function, target.name)``.

    Returns the number of attribute bindings replaced.
    """
    replaced = 0
    modules = _loaded_repro_modules()
    for target in targets:
        raw = target.raw
        if target.owner is not None:
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrap(raw.__func__, target.name))
            else:
                wrapped = wrap(raw, target.name)
            setattr(target.owner, target.attr, wrapped)
            replaced += 1
            continue
        wrapped = wrap(raw, target.name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, attr, wrapped)
                    replaced += 1
    return replaced
