"""Record types: classes whose annotated attributes are their fields.

``@record`` gives a class the ``__init__``, ``__repr__``, ``__eq__`` and
``__hash__`` that its fields determine, and makes its instances frozen.
The methods are closures over each class's field tuples, made without
compiling anything: ``dataclasses`` writes and compiles the source of every
method of every class, and doing so was most of the package's import time.

A field's default is its class attribute, or ``field(factory)`` for a
default built anew for each instance.  When the class defines
``__post_init__``, it runs after ``__init__``, and so after ``replace``; a
frozen record sets what it derives with ``object.__setattr__``.  A class's
own ``__hash__`` is kept.  Equal records are of one class with equal
fields, and a record hashes as the tuple of its fields, as a dataclass
does.
"""

from operator import attrgetter


class _Factory:
    __slots__ = ("make", "compare")

    def __init__(self, make, compare):
        self.make = make
        self.compare = compare


def field(factory, compare=True):
    """A field whose default ``factory()`` builds for each instance; with
    ``compare=False`` it is left out of eq, hash and repr."""
    return _Factory(factory, compare)


def record(cls):
    """Make ``cls`` a frozen, hashable record."""
    key = _attach(cls)
    if "__hash__" not in cls.__dict__:

        def __hash__(self):
            return hash(key(self))

        cls.__hash__ = __hash__
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def fields(value):
    """The field names of a record, in order; None for anything else,
    record classes included."""
    return getattr(type(value), "__record_fields__", None)


def replace(instance, **changes):
    """A copy of a record with ``changes`` to its fields, built through its
    ``__init__``, so that its ``__post_init__`` checks and derives anew."""
    for name in type(instance).__record_fields__:
        if name not in changes:
            changes[name] = getattr(instance, name)
    return type(instance)(**changes)


def _refuse_assignment(self, name, value):
    raise AttributeError(
        f"cannot assign a {type(value).__name__} to {name!r}: {type(self).__name__} is frozen"
    )


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


def _attach(cls):
    """Read the fields of ``cls`` from its annotations, give it ``__init__``,
    ``__repr__`` and ``__eq__``, and return the key that eq compares."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults, factories, compared = {}, {}, []
    for name in names:
        default = cls.__dict__.get(name)
        if isinstance(default, _Factory):
            factories[name] = default.make
            delattr(cls, name)
            if default.compare:
                compared.append(name)
            continue
        if name in cls.__dict__:
            defaults[name] = default
        compared.append(name)
    cls.__record_fields__ = names
    cls.__init__ = _init(cls, names, defaults, factories)
    cls.__repr__ = _repr(tuple(compared))
    key = _key(compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    cls.__eq__ = __eq__
    return key


def _key(names):
    """The tuple of the named fields of a record (attrgetter returns a bare
    value for one name)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


def _init(cls, names, defaults, factories):
    """``__init__`` taking the fields by position or keyword, in order."""
    arity, known, name = len(names), frozenset(names), cls.__name__
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        values = kwargs  # a fresh dict at each call
        if args:
            if len(args) > arity:
                raise TypeError(f"{name}() takes {arity} arguments, {len(args)} given")
            values = dict(zip(names, args))
            if kwargs:
                values.update(kwargs)
                if len(values) < len(args) + len(kwargs):
                    raise TypeError(f"{name}() got an argument twice: {sorted(kwargs)}")
        if kwargs and not known.issuperset(kwargs):
            raise TypeError(f"{name}() got unknown arguments {sorted(kwargs.keys() - known)}")
        if len(values) < arity:
            values = {**defaults, **values}
            if factories:
                for absent in factories.keys() - values.keys():
                    values[absent] = factories[absent]()
            if len(values) < arity:
                raise TypeError(f"{name}() is missing {sorted(known - values.keys())}")
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    return __init__


def _repr(shown):
    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({args})"

    return __repr__
