"""Seeded OIR corpus generator with a by-construction race oracle.

Every module is a whole program in the shape of one of the paper's
evaluation subjects: thread origins and event-handler origins spawned by
main, nested thread creation, thread pools spawned in a loop, shared
objects that are racy, lock-guarded or read-only, origin-local objects made
by factories, a context amplifier every origin calls into, constructor
attributes, atomic fields, joins and padding code.

The generator decides every access itself, so it knows which pairs of
statements race without running any analysis: two accesses to the same
field of the same object race when they come from concurrent origin
instances, at least one writes and their locksets are disjoint. Two
instances are concurrent unless they are both event handlers (handlers
share one looper) or a join orders them; the two instances of a thread
spawned in a loop are concurrent with each other, so such a thread races
with itself. Origin-local objects never race, which is the precision the
paper's origin-sensitive pointer analysis buys.

The seed chooses names, object roles, the order and targets of accesses,
locks and joins. The size of each module comes from a fixed schedule, so
the cost of analysing a corpus barely moves from seed to seed.
"""

import random
from collections import Counter, namedtuple

# One row per module, taken from the subject profiles the C++ workload
# generator uses for the paper's tables (benchmarkProfiles() in
# src/workload/Generator.cpp): origin counts (#O of Table 5), call-chain
# depth, padding functions, racy and lock-guarded objects, nested spawn
# depth, and the context amplifier's layers and fan-out. Sixteen of its
# thirty subjects are kept, from all four groups (DaCapo, Android,
# distributed systems, C/C++), so one fleet pass stays near a second.
#
# loop is this benchmark's own addition: the number of thread origins main
# spawns inside `loop { }`, i.e. thread pools (paper section 3.2). The
# profiles leave SpawnInLoop off; it is set here on the server subjects.
Subject = namedtuple("Subject", "name threads events depth pad racy locked "
                     "nested amp_layers amp_fanout loop")
SCHEDULE = [
    Subject("avrora", 4, 0, 3, 60, 1, 2, 0, 4, 10, 0),
    Subject("h2", 3, 0, 5, 200, 2, 3, 0, 4, 24, 0),
    Subject("sunflow", 9, 0, 3, 40, 1, 2, 0, 4, 6, 0),
    Subject("xalan", 3, 0, 4, 110, 1, 2, 0, 4, 26, 0),
    Subject("tomcat", 4, 2, 4, 50, 1, 2, 0, 4, 30, 1),
    Subject("connectbot", 3, 8, 3, 25, 1, 2, 0, 4, 28, 0),
    Subject("k9mail", 5, 18, 3, 45, 1, 2, 0, 4, 28, 0),
    Subject("fbreader", 4, 11, 3, 40, 1, 2, 0, 4, 30, 0),
    Subject("telegram", 20, 114, 3, 90, 1, 2, 0, 4, 32, 0),
    Subject("chrome", 8, 26, 3, 45, 1, 2, 0, 4, 32, 0),
    Subject("hbase", 12, 4, 5, 220, 3, 4, 2, 4, 30, 2),
    Subject("yarn", 10, 4, 5, 260, 3, 4, 2, 4, 10, 2),
    Subject("zookeeper", 30, 10, 4, 120, 3, 4, 2, 4, 10, 4),
    Subject("memcached", 8, 4, 3, 60, 2, 3, 0, 3, 8, 2),
    Subject("redis", 10, 5, 4, 140, 2, 3, 2, 4, 24, 2),
    Subject("sqlite3", 3, 0, 5, 300, 1, 4, 0, 4, 44, 0),
]

# Settings every profile shares (WorkloadProfile's defaults in
# include/o2/Workload/Generator.h): read-only objects, locks, statements
# per padding function and per amplifier method.
READ_ONLY = 2
LOCKS = 2
PAD_STMTS = 30
AMP_STMTS = 12
# Shared accesses of each origin, patterned on the same defaults (one
# unprotected write, two protected regions, three reads) plus a racy
# access under a lock that does not guard it and an atomic counter update.
KIND_PATTERN = ("racy", "guarded", "ro", "racy", "guarded", "ro", "ro",
                "atomic")
# Origin-local allocations per origin, one per factory depth 1..3.
LOCAL = 3
# Accesses main makes after its spawns and joins.
POST = 4
FIELDS = ("f0", "f1")


# One access to a field of an object, as the oracle sees it. origin is a
# class name or "main"; all of main's accesses follow its joins. looped
# marks a thread spawned in a loop, which has two concurrent instances.
Access = namedtuple("Access",
                    "origin event looped loc write locks stmt function")


def race_key(location, a, b):
    """Order-free identity of a race: location and both access sites, each
    a (statement, function, write) tuple."""
    return (location, frozenset([a, b]))


def report_key(race):
    """race_key() of one race record in an o2batch JSONL report."""
    first, second = race["first"], race["second"]
    return race_key(race["location"],
                    (first["stmt"], first["function"], first["write"]),
                    (second["stmt"], second["function"], second["write"]))


class ModuleBuilder:
    def __init__(self, rng, shape):
        self.rng = rng
        self.s = shape
        self.lines = []
        self.accesses = []
        self.joined = set()
        n = shape.racy + shape.locked + READ_ONLY
        objs = list(range(n))
        rng.shuffle(objs)
        self.racy = objs[:shape.racy]
        self.guarded = objs[shape.racy:shape.racy + shape.locked]
        self.ro = objs[shape.racy + shape.locked:]
        self.num_objs = n
        self.guard = {k: rng.randrange(LOCKS) for k in self.guarded}

    def emit(self, line):
        self.lines.append(line)

    def location(self, obj, field):
        return "Data@main:d%d = new Data.%s" % (obj, field)

    # -- shared declarations -------------------------------------------------

    def declarations(self):
        self.emit("class Data { field f0: int; field f1: int; "
                  "field gen: int atomic; field next: Data; }")
        self.emit("class Lock { }")
        self.emit("class Pad { field p0: int; field p1: int; "
                  "field link: Pad; }")
        for k in range(self.num_objs):
            self.emit("global gD%d: Data;" % k)
        for j in range(LOCKS):
            self.emit("global gL%d: Lock;" % j)
        # Factories of depth 1..3: one allocation site reached from every
        # origin, kept apart per origin by origin-sensitive analysis.
        self.emit("func mk0(): Data { var d: Data; d = new Data; return d; }")
        self.emit("func mk1(): Data { var d: Data; d = mk0(); return d; }")
        self.emit("func mk2(): Data { var d: Data; d = mk1(); return d; }")

    def amplifier(self):
        """Classes U0..U(L-1): U(l).m allocates fan-out receivers of the
        next layer and calls m on each at its own call site. Every origin
        enters it with an object of its own, so it costs pointer-analysis
        work (multiplied by call-site and object contexts, linear under
        origins) and never races."""
        layers, fanout = self.s.amp_layers, self.s.amp_fanout
        for l in range(layers):
            body = ["var t: int;", "var x: Data;"]
            if l + 1 < layers:
                body += ["var n%d: U%d;" % (f, l + 1) for f in range(fanout)]
            body.append("x = new Data;")
            body += ["x.f0 = t;" if k % 2 == 0 else "t = x.f1;"
                     for k in range(AMP_STMTS)]
            if l + 1 < layers:
                for f in range(fanout):
                    body += ["n%d = new U%d;" % (f, l + 1), "n%d.m(d);" % f]
            else:
                body.append("t = d.f1;")
            self.emit("class U%d { method m(d: Data) { %s } }"
                      % (l, " ".join(body)))

    def padding(self):
        """Sequential code main runs before any spawn."""
        for j in range(self.s.pad):
            body = ["var p: Pad;", "var q: Pad;", "var t: int;",
                    "p = new Pad;", "q = new Pad;"]
            body += [("p.link = q;", "q = p.link;", "q.p0 = t;", "t = q.p1;",
                      "p = q;")[k % 5] for k in range(PAD_STMTS)]
            if j:
                body.append("pad%d();" % (j - 1))
            self.emit("func pad%d() { %s }" % (j, " ".join(body)))

    # -- origins -------------------------------------------------------------

    def shared_specs(self, count):
        """The shared accesses of one origin: (object, field, write, lock).

        Kind counts and the racy objects' read/write mix are fixed by
        count; the seed only rotates targets and locks, so the number of
        races barely moves between seeds. Every second racy access holds a
        lock no other access is bound to take."""
        rng = self.rng
        off = rng.randrange(len(self.racy) * 2)
        specs = []
        racy = 0
        for j in range(count):
            kind = KIND_PATTERN[j % len(KIND_PATTERN)]
            if kind == "racy":
                r = off + racy
                lock = rng.randrange(LOCKS) if racy % 2 else None
                specs.append((self.racy[r % len(self.racy)],
                              FIELDS[(r // len(self.racy)) % 2],
                              (off + j) % 2 == 0, lock))
                racy += 1
            elif kind == "guarded":
                k = rng.choice(self.guarded)
                specs.append((k, rng.choice(FIELDS), rng.random() < 0.5,
                              self.guard[k]))
            elif kind == "ro":
                specs.append((rng.choice(self.ro), rng.choice(FIELDS), False,
                              None))
            else:
                specs.append((rng.randrange(self.num_objs), "gen", True, None))
        rng.shuffle(specs)
        return specs

    def shared_op(self, spec, origin, fn, var, tmp, body, event=False,
                  looped=False):
        """Appends one shared-object access to body; True if it locks."""
        k, field, write, lock = spec
        body.append("%s = @gD%d;" % (var, k))
        if lock is not None:
            body.append("l%s = @gL%d;" % (var, lock))
            body.append("acquire l%s;" % var)
        stmt = ("%s.%s = %s" % (var, field, tmp) if write
                else "%s = %s.%s" % (tmp, var, field))
        body.append(stmt + ";")
        if lock is not None:
            body.append("release l%s;" % var)
        if field != "gen":
            self.accesses.append(Access(
                origin, event, looped, self.location(k, field), write,
                frozenset() if lock is None else frozenset([lock]), stmt, fn))
        return lock is not None

    def local_op(self, n, var, tmp, body):
        body.append("%s = mk%d();" % (var, n % 3))
        body.append("%s.f0 = %s;" % (var, tmp))
        body.append("%s = %s.f1;" % (tmp, var))

    def origin_class(self, idx, event, looped):
        s, rng = self.s, self.rng
        cls = ("E%d" if event else "T%d") % idx
        entry = "handleEvent" if event else "run"
        fns = [entry] + ["%s_s%d" % (cls.lower(), d)
                         for d in range(1, s.depth)]
        bodies = [[] for _ in fns]
        decls = [set() for _ in fns]
        tmp = "t%s" % cls.lower()
        if s.amp_layers:
            decls[0].update(["var ad%s: Data;" % cls.lower(),
                             "var u%s: U0;" % cls.lower()])
            bodies[0] += ["ad%s = mk0();" % cls.lower(),
                          "u%s = new U0;" % cls.lower(),
                          "u%s.m(ad%s);" % (cls.lower(), cls.lower())]
        specs = self.shared_specs(len(KIND_PATTERN))
        ops = (["shared"] * len(specs) +
               ["local%d" % n for n in range(LOCAL)])
        if not event:
            ops.append("att")
        rng.shuffle(ops)
        for n, op in enumerate(ops):
            at = rng.randrange(len(fns))
            var = "a%s_%d" % (cls.lower(), n)
            decls[at].add("var %s: Data;" % var)
            if op == "shared":
                if self.shared_op(specs.pop(), cls, fns[at], var, tmp,
                                  bodies[at], event, looped):
                    decls[at].add("var l%s: Lock;" % var)
            elif op.startswith("local"):
                self.local_op(int(op[5:]), var, tmp, bodies[at])
            else:
                # The constructor attribute is the thread's own object, but
                # both instances of a looped thread get the one allocated
                # in the loop.
                bodies[at].append("%s = this.att;" % var)
                stmt = "%s.f0 = %s" % (var, tmp)
                bodies[at].append(stmt + ";")
                if looped:
                    self.accesses.append(Access(
                        cls, False, True,
                        "Data@main:p%s = new Data.f0" % cls.lower(), True,
                        frozenset(), stmt, fns[at]))
        for d in range(len(fns) - 1):
            bodies[d].append("this.%s();" % fns[d + 1])
        self.emit("class %s {" % cls)
        if not event:
            self.emit("  field att: Data;")
            self.emit("  method init(a: Data) { this.att = a; }")
        for fn, decl, body in zip(fns, decls, bodies):
            self.emit("  method %s() { var %s: int; %s %s }"
                      % (fn, tmp, " ".join(sorted(decl)), " ".join(body)))
        self.emit("}")
        return cls, entry, looped

    def nested_classes(self):
        """N0 spawns N1 spawns ... (nested thread creation); each level
        starts its child first, so the child runs alongside the level's
        own shared accesses. Returns the outermost class, or None."""
        outer = None
        for d in reversed(range(self.s.nested)):
            cls = "N%d" % d
            decl, body = ["var t%s: int;" % cls.lower()], []
            if outer:
                decl.append("var c%s: %s;" % (cls.lower(), outer))
                body += ["c%s = new %s;" % (cls.lower(), outer),
                         "spawn c%s.run();" % cls.lower()]
            for n, spec in enumerate(self.shared_specs(len(KIND_PATTERN))):
                var = "a%s_%d" % (cls.lower(), n)
                decl.append("var %s: Data;" % var)
                if self.shared_op(spec, cls, "run", var, "t%s" % cls.lower(),
                                  body):
                    decl.append("var l%s: Lock;" % var)
            self.emit("class %s { method run() { %s %s } }"
                      % (cls, " ".join(decl), " ".join(body)))
            outer = cls
        return outer

    # -- main ----------------------------------------------------------------

    def main(self, origins, nest):
        rng = self.rng
        decl = ["var t: int;"]
        body = []
        for k in range(self.num_objs):
            decl.append("var d%d: Data;" % k)
            body += ["d%d = new Data;" % k, "d%d.f0 = t;" % k,
                     "d%d.f1 = t;" % k, "@gD%d = d%d;" % (k, k)]
        for j in range(LOCKS):
            decl.append("var l%d: Lock;" % j)
            body += ["l%d = new Lock;" % j, "@gL%d = l%d;" % (j, j)]
        if self.s.pad:
            body.append("pad%d();" % (self.s.pad - 1))
        threads = []
        for cls, entry, looped in origins:
            var = "o%s" % cls.lower()
            decl.append("var %s: %s;" % (var, cls))
            spawn = []
            if entry == "run":
                decl.append("var p%s: Data;" % cls.lower())
                spawn.append("p%s = new Data;" % cls.lower())
                spawn.append("%s = new %s(p%s);" % (var, cls, cls.lower()))
                if not looped:
                    threads.append((cls, var))
            else:
                spawn.append("%s = new %s;" % (var, cls))
            spawn.append("spawn %s.%s();" % (var, entry))
            if looped:
                spawn = ["loop {"] + spawn + ["}"]
            body += spawn
        if nest:
            decl.append("var onest: %s;" % nest)
            body += ["onest = new %s;" % nest, "spawn onest.run();"]
        for cls, var in rng.sample(threads, len(threads) // 2):
            body.append("join %s;" % var)
            self.joined.add(cls)
        for n, spec in enumerate(self.shared_specs(POST)):
            var = "m_%d" % n
            decl.append("var %s: Data;" % var)
            if self.shared_op(spec, "main", "main", var, "t", body):
                decl.append("var l%s: Lock;" % var)
        self.emit("func main() { %s %s }" % (" ".join(decl), " ".join(body)))

    def concurrent(self, a, b):
        if a.origin == b.origin:
            return a.looped
        if a.event and b.event:
            return False
        return not ((a.origin == "main" and b.origin in self.joined) or
                    (b.origin == "main" and a.origin in self.joined))

    def expected_races(self):
        """The oracle: every racing pair of access sites, by location."""
        by_loc = {}
        for a in self.accesses:
            by_loc.setdefault(a.loc, []).append(a)
        races = Counter()
        for loc, accs in by_loc.items():
            for i, a in enumerate(accs):
                for b in accs[i:]:
                    if ((a.write or b.write) and not a.locks & b.locks and
                            self.concurrent(a, b)):
                        races[race_key(loc, (a.stmt, a.function, a.write),
                                       (b.stmt, b.function, b.write))] += 1
        return races

    def build(self):
        s = self.s
        self.declarations()
        self.amplifier()
        self.padding()
        origins = [self.origin_class(i, False, i < s.loop)
                   for i in range(s.threads)]
        origins += [self.origin_class(i, True, False)
                    for i in range(s.events)]
        nest = self.nested_classes()
        self.rng.shuffle(origins)
        self.main(origins, nest)
        return "\n".join(self.lines) + "\n", self.expected_races()


def generate(seed):
    """Returns [(module name, OIR text, Counter of expected race keys)]."""
    rng = random.Random(seed)
    salt = "%06x" % rng.randrange(1 << 24)
    corpus = []
    for i, shape in enumerate(SCHEDULE):
        text, races = ModuleBuilder(random.Random(rng.random()), shape).build()
        corpus.append(("m%02d_%s_%s" % (i, shape.name, salt), text, races))
    return corpus
