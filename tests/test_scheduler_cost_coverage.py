"""Exhaustive coverage of the scheduler's message cost model.

Every message kind a scheduler can receive must have a well-defined
service time and ledger category — and the category must match the
paper's decomposition of G (scheduling vs updates vs polls vs adverts
vs auctions).
"""

import pytest

from repro.core import Category
from repro.network import Message, MessageKind, StatusForward, StatusUpdate

from helpers import MiniGrid


KIND_TO_CATEGORY = {
    MessageKind.JOB_SUBMIT: Category.SCHEDULE,
    MessageKind.JOB_TRANSFER: Category.SCHEDULE,
    MessageKind.STATUS_FORWARD: Category.UPDATE_RX,
    MessageKind.STATUS_UPDATE: Category.UPDATE_RX,
    MessageKind.POLL_REQUEST: Category.POLL,
    MessageKind.POLL_REPLY: Category.POLL,
    MessageKind.RESERVE_ADVERT: Category.ADVERT,
    MessageKind.RESERVE_PROBE: Category.ADVERT,
    MessageKind.RESERVE_REPLY: Category.ADVERT,
    MessageKind.RESERVE_CANCEL: Category.ADVERT,
    MessageKind.VOLUNTEER: Category.ADVERT,
    MessageKind.DEMAND: Category.ADVERT,
    MessageKind.DEMAND_REPLY: Category.ADVERT,
    MessageKind.AUCTION_INVITE: Category.AUCTION,
    MessageKind.AUCTION_BID: Category.AUCTION,
    MessageKind.AUCTION_AWARD: Category.AUCTION,
    MessageKind.JOB_COMPLETE: Category.COMPLETION,
    MessageKind.RESOURCE_DEAD: Category.FAULTS,
}


def message_of(kind):
    """A message of ``kind`` as the program builds it."""
    if kind == MessageKind.STATUS_UPDATE:
        return StatusUpdate(0, 0, 0, 0)
    if kind == MessageKind.STATUS_FORWARD:
        return StatusForward(0, {})
    return Message(kind)


@pytest.fixture(scope="module")
def scheduler():
    return MiniGrid(n_clusters=1, resources_per_cluster=2).schedulers[0]


@pytest.mark.parametrize("kind,category", sorted(KIND_TO_CATEGORY.items()))
def test_kind_cost_and_category(scheduler, kind, category):
    msg = message_of(kind)
    assert scheduler.service_time(msg) > 0.0
    assert scheduler.cost_category(msg) == category


def test_every_scheduler_kind_is_covered():
    """If a new protocol kind is added to MessageKind without a cost
    entry, this test forces the author to decide its G category."""
    scheduler_kinds = {
        v
        for k, v in vars(MessageKind).items()
        if not k.startswith("_")
        and isinstance(v, str)
        # resources and middleware handle these, not schedulers:
        and v not in (MessageKind.JOB_DISPATCH, MessageKind.MIDDLEWARE_RELAY)
    }
    assert scheduler_kinds == set(KIND_TO_CATEGORY)


def test_decision_kinds_use_dynamic_cost(scheduler):
    submit = scheduler.service_time(Message(MessageKind.JOB_SUBMIT))
    assert submit == pytest.approx(scheduler.decision_cost())


def test_all_categories_roll_into_G():
    from repro.core import CostLedger

    ledger = CostLedger()
    for category in set(KIND_TO_CATEGORY.values()):
        ledger.charge(category, 1.0)
    assert ledger.G == float(len(set(KIND_TO_CATEGORY.values())))
    assert ledger.F == 0.0 and ledger.H == 0.0
