"""Settings tables of the text control planes (`hds.server.SETTINGS`,
`pso.engine.SETTINGS`): control key -> (config field, forms).  The forms
are a dict from the texts SET takes (in any case) to the values they set,
a range of the integers it takes, or `int` for any integer.  GET shows a
value as its first text form or as the integer, which SET reads back.
"""

ON_OFF = {"0": False, "1": True, "OFF": False, "ON": True}


def parse(forms, text: str):
    if isinstance(forms, dict):
        if text.upper() not in forms:
            raise ValueError(f"{text!r} is not one of {', '.join(forms)}")
        return forms[text.upper()]
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None
    if forms is not int and value not in forms:
        raise ValueError(f"{value} outside [{forms.start}, {forms.stop - 1}]")
    return value


def show(forms, value) -> str:
    return next((k for k, v in forms.items() if v == value), str(value)) \
        if isinstance(forms, dict) else str(value)


def parse_set(table: dict, args) -> tuple:
    """(field, value) from the words after SET: a key and its one value."""
    field, forms = _entry(table, args, "SET needs a key and a value")
    if len(args) != 2:
        raise ValueError(f"SET {args[0].upper()} needs one value")
    return field, parse(forms, args[1])


def get_reply(table: dict, args, config) -> str:
    """The reply to the words after GET: one key."""
    field, forms = _entry(table, args, "GET needs a key")
    if len(args) != 1:
        raise ValueError(f"GET {args[0].upper()} takes no value")
    return show(forms, getattr(config, field))


def _entry(table: dict, args, missing: str) -> tuple:
    if not args:
        raise ValueError(missing)
    if args[0].upper() not in table:
        raise ValueError(f"unknown key {args[0].upper()}")
    return table[args[0].upper()]
