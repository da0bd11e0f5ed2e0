"""The guard on the session-wide ``small_federation`` sees a change."""

from repro.corpus import CollectionSpec, generate_collection
from repro.transport import FaultProfile

from tests.conftest import federation_fingerprint


def test_fingerprint_sees_a_new_document_and_a_fault_profile(own_small_federation):
    internet, _, resource = own_small_federation
    original = federation_fingerprint(own_small_federation)
    source = resource.source("Fed-DB")
    [document] = generate_collection(
        CollectionSpec(name="extra", topics={"databases": 1.0}, size=1, seed=7)
    )
    source.add_documents([document])
    grown = federation_fingerprint(own_small_federation)
    assert grown != original

    host = next(iter(internet._hosts))
    internet.set_fault_profile(host, FaultProfile.dead())
    assert federation_fingerprint(own_small_federation) != grown
    internet.set_fault_profile(host, None)
    assert federation_fingerprint(own_small_federation) == grown
