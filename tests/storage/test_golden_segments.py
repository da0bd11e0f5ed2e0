"""The on-disk bytes, pinned.

Every other storage test round-trips: what the writer encodes, the
reader decodes.  A change that altered both sides alike would pass them
all and still strand every store already on disk.  This one builds a
seeded store — several flushes, one tombstone, one merge, a flush after
it — and compares the sha256 of every file in every segment directory
with the hashes the format was last changed at.  A deliberate format
change (a new version) records new hashes here; nothing else may.
"""

import hashlib
import random

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.search import SearchEngine
from repro.storage.merge import TieredMergePolicy

WORDS = [
    "database", "databases", "query", "queries", "distributed", "network",
    "protocol", "search", "engine", "ranking", "merge", "source", "sources",
    "summary", "metadata", "stanford", "digital", "library", "index",
    "retrieval", "vector", "boolean", "proximity", "café", "niño", "über",
    "algorithm", "algoritmo", "datos", "red",
]


def _documents(rng: random.Random, start: int, count: int) -> list[Document]:
    weights = [1.0 / (rank + 1) for rank in range(len(WORDS))]
    documents = []
    for number in range(start, start + count):
        fields = {
            F.TITLE: " ".join(rng.choices(WORDS, weights, k=rng.randint(2, 5))),
            F.BODY_OF_TEXT: " ".join(rng.choices(WORDS, weights, k=rng.randint(8, 40))),
        }
        if number % 3 == 0:
            fields[F.AUTHOR] = rng.choice(["Gravano", "Chang", "García-Molina"])
        language = "es" if number % 7 == 0 else "en"
        documents.append(Document(f"http://golden/{number}", fields, language))
    return documents


def build_golden_store(directory) -> None:
    """Flushes of 150, 150, 40 and 40 documents (the 150s span two
    block-max blocks per common term), a tombstone in the third segment,
    the one merge the policy plans (the two 40s, which consumes the
    tombstone), then a last flush of 10."""
    rng = random.Random(25)
    engine = SearchEngine(
        storage="segments",
        storage_dir=directory,
        merge_policy=TieredMergePolicy(merge_factor=2),
    )
    try:
        start = 0
        for count in (150, 150, 40, 40):
            engine.add_all(_documents(rng, start, count))
            engine.flush()
            start += count
        assert engine.tombstone("http://golden/317")
        assert engine.segment_store.merge_once() is not None
        engine.add_all(_documents(rng, start, 10))
        engine.checkpoint()
    finally:
        engine.close()


def segment_hashes(directory) -> dict[str, str]:
    """``segment/file`` → sha256 for every file of every segment."""
    return {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("seg-*/*"))
    }


GOLDEN: dict[str, str] = {
    "seg-000000/blockmax.bin": "00e6c98d8c07baeb51ca7ec52d144bd245e3e0d6abe497550957474a2410f762",
    "seg-000000/counts.bin": "f8e2c1fe61706b1567f1acb7f97e4bd2415b518a5c2099166a236df9a384842f",
    "seg-000000/docs.bin": "31a21f301bd4206801d496ecc7a418399f09dd5f95658010c7d374a522edd3e0",
    "seg-000000/docs.idx": "ff499b8995226a2655f95f7f6f4718476f00c5ad42c6a504cb8d236f59e3a3cc",
    "seg-000000/ids.bin": "cfe9ef49abc35a06b2e2eea71e8b6a3f9b7874159db5c2b63e734cfee3cec739",
    "seg-000000/lexicon.bin": "ef20d36ca0b97ac4e066d639a3bcb8d6f56b6c8d167f5bdb3e2a1dc2456b74f9",
    "seg-000000/linkages.bin": "fb3c175df3fdf263b5f72d9d4bec5d6bfba28ad67d09fadf78cbd2c2cb712544",
    "seg-000000/postings.bin": "ffec3931e466993ee3b7ddaea7b496071a1b35f428c47c14107713225559df2b",
    "seg-000000/segment.json": "199a7d6f33b47bb3939312a5a73d4e6de7a3634af1e52f3f0334ed8cd3f97057",
    "seg-000000/summary.bin": "5b183eeba5666eed6f910f9fb06dc62cbd5d6b677dc0c0cf24212b6cb38a7a2a",
    "seg-000001/blockmax.bin": "68b61bc397b86bde51426c58bec783cbb8dfbca86bbf2adc545c16af45384897",
    "seg-000001/counts.bin": "0566b0f5128a1dcc9f221220de07ec237e8fc0f10d884dc6ccf2cc7f93d412f5",
    "seg-000001/docs.bin": "702b3fde2522ef4deee0c57859a5b0d5f6c996b986a77a07d563b84de345c55e",
    "seg-000001/docs.idx": "d84ccb4faed16b96736f7b28f099dc2de1b1d6eb5739455f8b0388071514aa17",
    "seg-000001/ids.bin": "515aead7136738df10161a7dbac5b1cbf4408ff301c38555f17ee1f494e5f72e",
    "seg-000001/lexicon.bin": "89d12de930e52716ca3a8c44fa65e7c9e8bcd81017c4d9a66af331defa6770d7",
    "seg-000001/linkages.bin": "13500658f16bc7bff0dee99820275bc9e2690774f4795f36669e94c43b874e4f",
    "seg-000001/postings.bin": "10e40c034823f8015e31fa9d05378a7b955d476be6196cd87085360d009d5663",
    "seg-000001/segment.json": "08409029b45cd26f043d851fd8a180a40ba83085015fe31d130039c5daf390ce",
    "seg-000001/summary.bin": "73fc844e702262134fea209806a567f037217e3a076126b137401afe075ddab3",
    "seg-000004/blockmax.bin": "017176fa7396ae8bb1bc1629cbb0dbebc85979d281630e2c822e6c1983264a8b",
    "seg-000004/counts.bin": "aa8fee0617a28995cfde972776b523d70cb89d8f300a34df47214924880c3bfc",
    "seg-000004/docs.bin": "db0c70cacc55e0ac344532e730569dd9b061410465817d998f2f5d9e14cf4396",
    "seg-000004/docs.idx": "edb0c4bd064aab20f1f88daf028215145311018b7d55027622f63113beb42fa1",
    "seg-000004/ids.bin": "6d61433958b3733897dffe10562c158b1d8c7229a3ac4aaff67675769f5dc224",
    "seg-000004/lexicon.bin": "7a261a115e3f35e8063466e04b43be4c45ebf4189803b9d67768b06706c5a8fb",
    "seg-000004/linkages.bin": "f1ce9cb9837e528c57c0dfa87f7eb04abc170d617c150017036baec05199e4a2",
    "seg-000004/postings.bin": "d93225b81297b110440a14f7931e6f293d66a38ebdb542c2eb3e61c463842d63",
    "seg-000004/segment.json": "c593f84569d723f22336b7ef4d119ec248525234e485ad75bc9b53b75298d23f",
    "seg-000004/summary.bin": "1879bd4559e8673f62b343d0e4a4dee8785879f8ddc8fad94075b6b60eab39a5",
    "seg-000005/blockmax.bin": "aa8e79f68a87c9f18e4d279b80827e76de7155bbd52f55eeabfef95e5defb3df",
    "seg-000005/counts.bin": "4d90cbda37a5c019e11160df8af4d32c4df36314c2d53f20e4666f303dbda9c5",
    "seg-000005/docs.bin": "2df8929dea3f37ff2415994efe87e3109f1292d410459a155cd5bb221a130616",
    "seg-000005/docs.idx": "8a15175ecbc337102fefd05730e1d7de220c2597f541f0c003e65f1e383790d3",
    "seg-000005/ids.bin": "ed4d8ef9b378b683abfddae752f074cbce303169b9f82475dc48f603180661a7",
    "seg-000005/lexicon.bin": "dea9ef7b7bdf33672c559edd35f97209ac8a2e16596d9e009d5520bc3f0e202d",
    "seg-000005/linkages.bin": "d52c78514a63b71fb1fbd04afa39e1e4b537169a703c62d01b462074311b4070",
    "seg-000005/postings.bin": "7a5114519947ffbda49a2cfc6e12c24fe9923bb1cdbaee24a5801995c53f664f",
    "seg-000005/segment.json": "8df958d5cd04457340e8464d161d4c130c9514e45a0feb9554dd274780640099",
    "seg-000005/summary.bin": "5df6499de36a5f81da235b92730858c1e900b03dc96f2b8e0e907d4983c8e0b8",
}


def test_segment_bytes_match_the_recorded_hashes(tmp_path):
    build_golden_store(tmp_path / "store")
    assert segment_hashes(tmp_path / "store") == GOLDEN
