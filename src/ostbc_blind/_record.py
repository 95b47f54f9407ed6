"""Immutable records whose methods are compiled with the package.

A frozen ``dataclasses.dataclass`` writes the source of six methods and
compiles it when its class is defined, that is at every import. The
records of this package share the plain methods of :class:`Record`
instead, so defining one compiles nothing.
"""


class Record:
    """An immutable record of the fields annotated in its class body.

    The fields are the class's annotations, in order. The constructor
    takes them positionally or by keyword; a class attribute of a field's
    name is its default. ``__post_init__``, when the class defines one,
    runs once the fields are set, and may replace a field through
    ``object.__setattr__``. Assigning or deleting an attribute raises
    :class:`AttributeError`. ``repr`` leaves out the fields named in
    ``_hidden``.
    """

    _fields = ()
    _hidden = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                                f"argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for "
                                f"argument {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in cls.__dict__:
                    raise TypeError(f"{cls.__name__}() missing argument "
                                    f"{name!r}")
                values[name] = cls.__dict__[name]
        vars(self).update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"
