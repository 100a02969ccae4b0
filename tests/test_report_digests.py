"""Pinned SHA-256 digests of thirty-eight JSON reports.

Each report runs in-process through ``cli.run`` with ``--format json`` and
the digest of its standard output is compared with a value recorded from
the library at version 0.1.0.  A refactor that claims "same outputs" must
keep every digest; a deliberate change to a report's content must update
its digest here and say why.  The reports carry ``library_version``, so a
``__version__`` bump changes every digest.

One more report, ``table1 --n 6 --seed 0``, is pinned in ``PINNED_BY_CLI``
and checked by ``test_cli.py``'s n = 6 test on the report it writes, so
that the suite runs table1 at n = 6 once.
"""

import hashlib

import pytest

from symideal.cli import run

PINNED = {
    "table1 --n 3 --seed 0":
        "6d2bcb4d94a1c2249ad7a1f82f8e54f7092c62084496ea6263fca2ac3a1f2936",
    "table1 --n 4 --seed 1":
        "2c8b93e075c0e14e728d123d2cfe6eeb1524ccdf023c0884315bb867f8d09b80",
    "lemmas --n 3":
        "ce4536428b1a25c037c1d50ec508dfc685b43f8b5a8bb1ef4978bdd2d442964e",
    "lemmas --n 4":
        "cb2580baa782e88cb5c0ab33ecdfc72582995d448644dec76826170d4bc1a5f8",
    "lemmas --n 5":
        "31991340e36472588297e50a20610e31b3acfba2997d859601f109d175cca01b",
    "tanisaki --n 4 --lambda 2,1,1 --mode apolar":
        "1a2ab4525b8a0dc46dfe67fc3e5111aa3dce89219d52132a57ffff1cba438567",
    "tanisaki --n 4 --lambda 2,2 --mode apolar":
        "05bbabbadf1bf7a2244b759d81a1202efb8f28f277a0648d86649b528897708e",
    "tanisaki --n 5 --lambda 3,2 --mode apolar":
        "513ffd283346c95e468616efdadbf5553d3a5200669da7cab2833692b1784294",
    "tanisaki --n 5 --lambda 3,1,1 --mode apolar":
        "05ae6b300e3bc3582d0343196aa156ae5b8009ec0177771bc121aaeb4a11f184",
    "tanisaki --n 5 --lambda 2,1,1,1 --mode apolar":
        "77d7a4043c5be82cf57cfab6f51cdd9c813f381c83d6845534e0cb80240cf112",
    "tanisaki --n 6 --lambda 3,2,1 --mode apolar":
        "6f9757d42eadc13aa0aec017b630032347b3347656a79352962c14508cc8b668",
    "tanisaki --n 6 --lambda 2,2,2 --mode apolar":
        "4e306060b6ad034758c86ac783048af01db2b80017d64a36c479078dfd354e17",
    "tanisaki --n 6 --lambda 4,1,1 --mode apolar":
        "5c8d2031f9f96b157e7cd0f1cffae04f77ff853ee869bcee27a64b88d3d7fe94",
    "tanisaki --n 6 --lambda 3,1,1,1 --mode apolar":
        "1c5180e3526e8deaaf2408865762f14fa69ed651f15280010a6e91b0393663b7",
    # the dual layers keep few of the images they could take
    "tanisaki --n 6 --lambda 2,2,1,1 --mode apolar":
        "d7c7e5b6006c1310e1072437aebf928a0f454608d912f76838ebc76c227ce6b8",
    "tanisaki --n 4 --lambda 2,1,1 --mode all":
        "8f53f302b0027471684c0cbe65bd0b874df64cd243b6ff9d1b5c2a7b358350c6",
    "tanisaki --n 5 --lambda 2,2,1 --mode all":
        "64660b1703ad078aec8978b8689529c9cf83d7ea5239d18e4a04aea8d9327a82",
    "tanisaki --n 6 --lambda 3,1,1,1 --mode all":
        "2e2df8d0b16385f34df98c6848f1b324cfcc7ce1dd3a871b093797df635752fa",
    "tangent --n 4 --row 6":
        "7c1bac8f4bc48d1a1547ea94d41054603dbc751c5c354ccb248c96a288163a9a",
    "tangent --n 5 --tanisaki 3,2":
        "13672b75a9f5ff3f0f36e80913113348d8c9e175553cd095ba0aa84a7be8fee8",
    "tangent --n 5 --tanisaki 3,1,1":
        "8acace52128e9147cdf3bdf224e941eb3e8638b574225e81510c5a3a3fd9dfc1",
    "tangent --n 5 --tanisaki 2,2,1":
        "552abffb0ed6a35ab98d3e7e985d51be1322330375cac05464004cd4a0b8c9db",
    "tangent --n 6 --tanisaki 5,1":
        "5b3f7394f52a16c59ac9eb771905269910eac2825be24d9219d6f4fdedf28142",
    "tangent --n 6 --tanisaki 4,2":
        "e5c162388fe9d0f659e7697a998ac659f156e1ff7055b2f8e2942d1682276dfd",
    "tangent --n 6 --tanisaki 3,3":
        "97ad51b52cd3bcc0602f7bd9c58c6963c0bb742d783cd208b0ff0643df1f7d67",
    "tangent --n 6 --tanisaki 4,1,1":
        "490d8a7a118da0eff6958b344c073085712c02b6faed3831253d584deb9ddd86",
    "tangent --n 6 --tanisaki 3,2,1":
        "15c9e57aa6a3629ccf81322aac579ecf276a08d4914f1248fb95e60bc60db05c",
    "tangent --n 6 --tanisaki 2,2,2":
        "74e7d3ecc0659fdfe71e8152bf9e89f709c91be9cb290d7fb16501d03f016354",
    "gr --n 4 --point 3,-1,-1,-1":
        "b6cf432ed87427035a24b8afc78b15f3fa0c77cf6d621a1d7b6df33a0ec865be",
    "gr --n 5 --point 1,2,3,4,5":
        "005188076c58e0dfd07280eb2f4a436f0fa5d8234605ce5496aac4f408cb8ccb",
    "gr --n 6 --point 1,1,2,2,3,-9":
        "788e4e0e5a6fa41421f8e49668015f50701d5a374c750ca35f04276e26d23080",
    # 360 points
    "gr --n 6 --point 0,1,2,3,4,4":
        "861395999ee82ee60d5897cf4ea16744f4eddfe40ab7db697854ab7f293c605d",
    "decompose --n 4 --row 9":
        "f82957076dfd8dde93434822ff34964d7419700713f370593d3ca14bff6aa50d",
    "decompose --n 6 --tanisaki 2,2,1,1":
        "750f09343994ec609a5cd8ef51b0aaf991aea6940213cdbfb8b82aab42ada9de",
    # a free orbit, non-homogeneous
    "decompose --n 3 --gens x1+x2+x3;x1^2+x2^2+x3^2-6;x1^3+x2^3+x3^3":
        "09106a68d6be2999e5afb993a9a0408fc714cc74300006df706d0890c0090690",
    # a homogeneous ideal given by inhomogeneous generators
    "decompose --n 2 --gens x1+x2+x1^2;x1+x2;x1*x2":
        "05979d9db292f95dcdd41da0c716098de630b4cf6251269641290f3bd9de71cb",
    "specht --n 5 --lambda 2,2,1":
        "834298067153be118b14e91f1fe7b43e27cbaa9b0296e80f43e7e6016e5a5da3",
    "specht --n 6 --lambda 1,1,1,1,1,1":
        "9f9379feddd0e1364bf082edf89cfdabdca2474cfa7ec266bf4cef8f36567487",
}

PINNED_BY_CLI = {
    "table1 --n 6 --seed 0":
        "5511bdb17eb0d5d999dd658401105bae066ccee7aa1e5fe1eeaa9a41b77c6e04",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_report_digest(command, capsys):
    code = run(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]
