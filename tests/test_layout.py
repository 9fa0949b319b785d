"""The C workload kernel (``_layout.c``) is an exact twin of the
pure-Python build.  Its pointer-chase layout gives the same node words,
the same first node and the same RNG state afterwards, and with its
``emit`` every kernel's trace and every image word is the one the
dict-backed layout and the Python ``emit`` produced (``test_emit.py``
checks ``emit`` itself)."""

import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.uarch.uop import MicroOp, UopType
from repro.workloads import generators
from repro.workloads.extra_kernels import (BTreeParams, HashJoinParams,
                                           btree_search, hash_join)
from repro.workloads.generators import (PointerChaseParams, TraceBuilder,
                                        _lay_out_chain)
from repro.workloads.memory_image import MemoryImage
from repro.workloads.serialize import save_workload
from repro.workloads.spec import build_trace

needs_kernel = pytest.mark.skipif(generators._kernel is None,
                                  reason="the C layout kernel did not build")


@pytest.fixture(params=["c", "python"])
def layout(request, monkeypatch):
    """Run the test under each layout implementation."""
    if request.param == "python":
        monkeypatch.setattr(generators, "_kernel", None)
    elif generators._kernel is None:
        pytest.skip("the C layout kernel did not build")
    return request.param


@needs_kernel
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       draws=st.integers(min_value=0, max_value=700),
       n=st.integers(min_value=1, max_value=300),
       node_bytes=st.sampled_from([16, 64, 96, 8192]),
       locality=st.sampled_from([0.0, 0.5, 1.0]),
       adjacency=st.sampled_from([0.0, 0.7, 1.0]))
def test_c_layout_matches_the_python_layout(seed, draws, n, node_bytes,
                                            locality, adjacency):
    """n < 64 (short back-pointer window), partial last pages (96-byte
    nodes), one node per page (8192), and an RNG anywhere in its
    624-word block (``draws``)."""
    params = PointerChaseParams(node_bytes=node_bytes,
                                page_locality=locality,
                                page_adjacency=adjacency)
    outcomes = []
    for implementation in (generators._kernel, None):
        rng = random.Random(seed)
        for _ in range(draws):
            rng.getrandbits(32)
        with mock.patch.object(generators, "_kernel", implementation):
            first, words = _lay_out_chain(rng, n, params, 0x10000000)
        outcomes.append((first, words, rng.getstate()))
    assert outcomes[0] == outcomes[1]


#: The kernels no SPEC profile names, with their default parameters.
EXTRA_KERNELS = {"btree_search": (btree_search, BTreeParams),
                 "hash_join": (hash_join, HashJoinParams)}


def _build(name, seed):
    """1000 uops of a SPEC profile or of an extra kernel, and its image."""
    if name not in EXTRA_KERNELS:
        return build_trace(name, 1000, seed=seed)
    kernel, make_params = EXTRA_KERNELS[name]
    image = MemoryImage()
    builder = TraceBuilder(image, seed=seed)
    kernel(builder, 1000, make_params())
    return builder.finish(name), image


def _digest(name, seed):
    """Digest of the trace uops plus every written image word."""
    trace, image = _build(name, seed)
    h = hashlib.sha256()
    for u in trace.uops:
        h.update(repr((u.seq, u.op.value, u.dest, u.src1, u.src2, u.imm,
                       u.pc, u.mispredicted, u.is_spill_fill,
                       u.mem_dep)).encode())
    h.update(repr(sorted((a, image.read(a))
                         for a in image.written_addresses())).encode())
    return h.hexdigest()


#: Recorded when chains were still laid out word by word into the
#: image's dict, before they became image regions.
DIGESTS = {
    ("mcf", 1): "a0295a622cc88a77af86c5e8dc4e2721"
                "a4470ba6ceb12a24ec10a59fd6864df9",
    ("mcf", 1009): "57ecea62fe710b687748df8e93c9ce60"
                   "566d6dead8529bc6f6d64d59a583010e",
    ("omnetpp", 1): "8e418b71c7c9eae71e4c7983116f1ce5"
                    "594d117892fcf81a3ef7fd1315e398b6",
    ("omnetpp", 1009): "619c72d2c0256366d7af50a553d0539"
                       "552a4aa3a441a6409fd9d9a86495fc189",
    ("gcc", 1): "b2bc40094f19536069a95d0fb1e8d74e"
                "06bb6e064640a6f76315da509ec123af",
    ("gcc", 1009): "7afa5fc64c234cccd2dcfbc4d6531a7c"
                   "9641af7aa4ea4a6d6f2f5ac63c9b6016",
    ("astar", 1): "28e08b0e09dd3ec943e0b07d79b76106"
                  "08854cde2b89ea32ce4f0967ce770745",
    ("astar", 1009): "0403ae2553791072426d1db536fb4eff"
                     "dd08c74bf92c92c5e3e01bd76040091e",
    ("xalancbmk", 1): "5697663675c8a8be7db646868c685f9b"
                      "08942bab9b4c76227ef8af6ee6053605",
    ("xalancbmk", 1009): "25a200ff95b1e7a935e3a756062c09b7"
                         "548c39324ae8d1788b4867d55f4670db",
}

#: Recorded while ``TraceBuilder.emit`` was Python only: stores (lbm),
#: plain streams, gathers, compute with FP uops and the extra kernels.
EMIT_DIGESTS = {
    ("lbm", 1): "c1fab3465a57e7ed36c3e4cf618b3ab3"
                "2ddcce487af61684fe9e1f6388c0a2b0",
    ("lbm", 1009): "516960858ba4efa2f2f9a85fe8fabdaa"
                   "0ae5945b254281bb235b0ee5e2534b05",
    ("libquantum", 1): "9dbe97435a245083c6c4b56a92da2cd8"
                       "ba3096f8207ff88d7f50d392ecfac43e",
    ("libquantum", 1009): "9dbe97435a245083c6c4b56a92da2cd8"
                          "ba3096f8207ff88d7f50d392ecfac43e",
    ("sphinx3", 1): "3ed63e7cfd3ef20649b6de91de670088"
                    "59062433a3235bad83224d339e7011b5",
    ("sphinx3", 1009): "42ec69433b283a5694ea4b5e60e72388"
                       "f0508d1d360faee0d3611af63a9cac49",
    ("soplex", 1): "4e7c37af291bd710209c3f269955e634"
                   "7488d54f1695b7ddca0f4f31b564b965",
    ("soplex", 1009): "bd6cb2c56eb41d00f1752935933fd303"
                      "d6787d95c24fc5c6e7f41ae29c58a86a",
    ("bzip2", 1): "d1c8f4c42b68c4049989c0a5176f19b7"
                  "1b665c98e376ab368a0199b85dbe7a0f",
    ("bzip2", 1009): "9d5d974e0d6cf0c3ad485e4870904658"
                     "231c33b7bd2f3c951576f5f80f47f102",
    ("calculix", 1): "0aea6d74c0a4f7924680a41dda59e70e"
                     "0f9dbc2b5387c2f3cc7a5b1b58cc717e",
    ("calculix", 1009): "f233fd9cc5ef4569090e24260427655"
                        "357ba6155306df7d8d4b80d41c55f5822",
    ("btree_search", 1): "881d419c6878bf4d05b517070774e037"
                         "9b7857f1f1b3ad57cd48f58e5c18c55f",
    ("btree_search", 1009): "4d1dc85863b49f50cfa0316f330ad01e"
                            "412cb01ef222352559e9b1a5989bb80a",
    ("hash_join", 1): "0278f1a1d85cd890279da63ff0f9697d"
                      "4af3755eb699c8b0aeab4abb5bd961cf",
    ("hash_join", 1009): "05c41f4fc44c557285fae54135a5f6b3"
                         "2a9bd51a0f8bbcdfc47fbfde2865e55a",
}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_traces_and_images_match_the_recorded_digests(layout, name, seed):
    assert _digest(name, seed) == DIGESTS[name, seed]


@pytest.mark.parametrize("name, seed", sorted(EMIT_DIGESTS))
def test_every_kernel_matches_its_recorded_digest(layout, name, seed):
    assert _digest(name, seed) == EMIT_DIGESTS[name, seed]


def test_saved_workload_matches_the_recorded_bytes(tmp_path):
    for implementation in (generators._kernel, None):
        with mock.patch.object(generators, "_kernel", implementation):
            trace, image = build_trace("mcf", 300, seed=1)
        path = tmp_path / "mcf.jsonl"
        save_workload(path, trace, image)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "97c67eea23e9a80d1f0b3e23d74c474d"
            "beb45578a0ea579cfb0d6e17198cd624")


def test_chains_are_image_regions(layout):
    _trace, image = build_trace("mcf", 200, seed=1)
    assert [(r.base, r.stride, r.words, len(r.data))
            for r in image.regions] == [
        (0x10000000 + j * 32768 * 128, 64, 2, 65536) for j in range(4)]
    assert len(image) == 4 * 65536 + 2        # plus two spill words


def test_layout_kernel_builds_into_the_shared_cache(tmp_path, monkeypatch):
    if generators._kernel is None:
        pytest.skip("the C layout kernel did not build")
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    module = kernel.load_source("repro.workloads._layout",
                                generators.LAYOUT_SOURCE,
                                "pure-Python layout and emit",
                                lambda module: module.setup(MicroOp,
                                                            UopType))
    assert module is not None and callable(module.chain)
    assert callable(module.Emitter([], {}, MemoryImage()).emit)
    assert [p.name for p in tmp_path.iterdir()] == [
        f"_layout_{kernel.source_hash(generators.LAYOUT_SOURCE)}"
        f"{kernel.EXT_SUFFIX}"]


def test_layout_implementation_names_the_layout(monkeypatch):
    if generators._kernel is not None:
        assert generators.layout_implementation().startswith("C ")
    monkeypatch.setattr(generators, "_kernel", None)
    assert generators.layout_implementation() == "python"
