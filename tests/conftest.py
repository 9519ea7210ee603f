from hypothesis import settings

# ``pytest --hypothesis-profile=thorough`` runs every property test on many
# more examples than the default profile, without a per-example deadline.
settings.register_profile("thorough", max_examples=3000, deadline=None)
