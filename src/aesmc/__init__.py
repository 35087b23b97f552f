"""Monte Carlo pricing of Bermudan/American puts under Heston-type models.

Almost-exact simulation samples each CIR variance factor from its exact
noncentral chi-squared transition; the truncated Euler baseline is included
for accuracy/efficiency comparisons. Pricing is Longstaff-Schwartz least
squares Monte Carlo.
"""
