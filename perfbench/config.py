"""Workload names, input sizes, graphs and the documented known defects.

Kept free of cubikit imports so that run.py can read it before any sample
has checked where cubikit comes from.
"""

GRAPHS = {
    "c5": ("abcde", (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                     ("e", "a"))),
    "c4": ("wxyz", (("w", "x"), ("x", "y"), ("y", "z"), ("z", "w"))),
    "p3": ("pqr", (("p", "q"), ("q", "r"))),
    "k2": ("uv", (("u", "v"),)),
}

SIZES = {
    "full": {
        "construct": {
            "ball": [("c5", 3), ("c4", 3), ("p3", 3), ("k2", 3)],
            "ball_rungs": {3: "small", 4: "large"},
            "davis": [("c5", 2), ("c5", 3), ("k2", 2), ("k2", 3), ("k2", 6)],
            "davis_rungs": {2: "small", 3: "large"},
            "davis_pairs": {("c5", 3): (1, 2, 120), ("k2", 6): (2, 3, 60)},
            "blowup": [("k2", 3, 3), ("c5", 2, 3)],
            "random_data": (("k2", 2), 2, 10),
            "iws": {"points_radius": 3, "class_reach": 2, "pairs": 60},
            "mul": {"words": 50, "reps": 2, "pairs": 200},
        },
        "walls": {
            "balls": [("c5", 3), ("c4", 4), ("p3", 4), ("c4", 3)],
            "ball_rungs": {3: "small", 4: "large"},
            "hyperplanes": [("c5", 3), ("c4", 4), ("p3", 4)],
            "rq": [(("c5", 3), 1), (("p3", 4), 3), (("c4", 3), 3)],
            "blowup": [(4, 4), (3, 2)],
            "sageev": [("c5", 3), ("c4", 3)],
            "iws": {"points_radius": 3, "class_reach": 2},
            "wallspaces": 30,
        },
        "tracks": {"small": 20, "large": 40, "misc": 20},
    },
    "tiny": {
        "construct": {
            "ball": [("c4", 2), ("k2", 3)],
            "ball_rungs": {2: "small", 3: "large"},
            "davis": [("c4", 2), ("k2", 2), ("k2", 3), ("k2", 4)],
            "davis_rungs": {2: "small", 3: "large"},
            "davis_pairs": {("k2", 4): (1, 2, 20)},
            "blowup": [("k2", 3, 3)],
            "random_data": (("k2", 2), 2, 3),
            "iws": {"points_radius": 2, "class_reach": 1, "pairs": 20},
            "mul": {"words": 5, "reps": 1, "pairs": 10},
        },
        "walls": {
            "balls": [("k2", 3), ("p3", 3), ("p3", 2)],
            "ball_rungs": {2: "small", 3: "large"},
            "hyperplanes": [("p3", 2), ("p3", 3)],
            "rq": [(("p3", 3), 2)],
            "blowup": [(3, 3), (3, 2)],
            "sageev": [("k2", 3)],
            "iws": {"points_radius": 2, "class_reach": 1},
            "wallspaces": 5,
        },
        "tracks": {"small": 20, "large": 24, "misc": 20},
    },
}

WORKLOADS = ("construct", "walls", "tracks")

KNOWN_DEFECTS = {
    "blowup-window-below-radius":
        "bijective blow-up data with fiber window below the Davis radius "
        "fails the restriction-quotient checks (conditions T,F,F,F,F)",
    "transversality-rim":
        "transversality raises AssertionError for walls of a class at the "
        "class_reach rim of the invariant wallspace window",
}
